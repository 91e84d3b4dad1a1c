//! The HiL loop's one telemetry path, end to end: each cycle is
//! recorded once and sealed into the registry, the stream, the flight
//! recorder and the tuner. Attaching every consumer must leave the
//! closed loop untouched, and folding the stream must land exactly on
//! the registry.

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas::tuner::TunerConfig;
use lkas_runtime::{fold, FlightDump, FlightRecorder, Metrics, TelemetryBus, TraceRecorder};
use lkas_scene::camera::Camera;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::{Sector, Track};
use std::sync::Arc;

/// Case 4 with the online tuner on a straight → right-turn track, so
/// situation switches, knob reconfigurations and tuner windows all
/// flow through the cycle record.
fn config() -> HilConfig {
    HilConfig::new(Case::Case4, SituationSource::Oracle)
        .with_camera(Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians()))
        .with_seed(42)
        .with_tuner(TunerConfig::new().with_seed(42))
        .with_trace(true)
}

fn run(config: HilConfig) -> HilResult {
    let track = Track::new(vec![
        Sector::for_situation(&TABLE3_SITUATIONS[0], 40.0),
        Sector::for_situation(&TABLE3_SITUATIONS[7], 60.0),
    ]);
    HilSimulator::new(track, config).run()
}

fn counters(r: &HilResult) -> [u64; 16] {
    [
        r.samples,
        r.perception_failures,
        r.reconfigurations,
        r.misidentifications,
        r.frame_drops,
        r.faulted_cycles,
        r.degraded_samples,
        r.degraded_entries,
        r.measurement_holds,
        r.observer_coasts,
        r.observer_reacquisitions,
        r.render_errors,
        r.tuner_decisions,
        r.tuner_explorations,
        r.tuner_fallbacks,
        r.time_s.to_bits(),
    ]
}

fn trace_bits(r: &HilResult) -> Vec<(u64, Option<u64>, u64, u64, u64)> {
    r.trace
        .iter()
        .map(|s| {
            let (t, y, truth) = (s.t_ms.to_bits(), s.y_l_measured.map(f64::to_bits), s.y_l_true);
            (t, y, truth.to_bits(), s.steering.to_bits(), s.vx.to_bits())
        })
        .collect()
}

#[test]
fn every_consumer_reads_one_cycle_record_without_touching_the_loop() {
    let bare = run(config());

    let metrics = Arc::new(Metrics::new());
    let bus = Arc::new(TelemetryBus::new(1 << 14));
    let sub = bus.subscribe();
    let recorder = TraceRecorder::new();
    let flight = Arc::new(FlightRecorder::new(1 << 14));
    let observed = run(config()
        .with_metrics(Arc::clone(&metrics))
        .with_stream(Arc::clone(&bus))
        .with_trace_sink(recorder.sink(0, "telemetry-path"))
        .with_flight_recorder(Arc::clone(&flight)));

    // Consumers never steer the loop.
    assert!(bare.tuner_decisions > 0, "the run must be long enough to commit tuner windows");
    assert!(bare.reconfigurations > 0, "the sector boundary must reconfigure the knobs");
    assert_eq!(counters(&bare), counters(&observed));
    assert_eq!(trace_bits(&bare), trace_bits(&observed));
    assert_eq!(bare.knob_store, observed.knob_store);

    // One record per cycle reaches the stream, and folding it rebuilds
    // the registry exactly.
    let deltas = sub.drain();
    assert_eq!(bus.dropped(), 0, "the ring must hold the whole run");
    assert_eq!(deltas.len() as u64, observed.samples, "one delta per control sample");
    assert_eq!(deltas.len(), observed.trace.len(), "one trace sample per control sample");
    // Without a degradation policy the loop acts on the raw perception
    // output, so every record carries the trace's lane offsets bit for
    // bit.
    for (n, (d, s)) in deltas.iter().zip(&observed.trace).enumerate() {
        assert_eq!(d.cycle, n as u64);
        assert_eq!(d.ts_us, d.cycle * lkas_runtime::CYCLE_TICKS, "virtual timestamps");
        assert_eq!(d.y_l_measured.map(f64::to_bits), s.y_l_measured.map(f64::to_bits));
        assert_eq!(d.y_l_true.map(f64::to_bits), Some(s.y_l_true.to_bits()));
    }
    assert!(deltas.iter().any(|d| d.y_l_measured.is_some()));
    assert!(deltas.iter().any(|d| d.labels.iter().any(|l| l == "situation_switch")));
    assert!(deltas.iter().any(|d| d.labels.iter().any(|l| l.starts_with("tuner_"))));
    assert_eq!(fold(deltas.iter()).snapshot(), metrics.snapshot());

    // The flight recorder holds the very same records.
    let path =
        std::env::temp_dir().join(format!("lkas-telemetry-path-{}.json", std::process::id()));
    flight.dump(&path, "test").unwrap();
    let dump: FlightDump = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(dump.deltas, deltas);

    // The trace sink saw the same run.
    let trace = recorder.chrome_trace_json();
    assert!(trace.contains("\"name\":\"run_start\"") && trace.contains("\"name\":\"perception\""));
}
