//! Closed-loop hardware-in-the-loop simulator (the IMACS-framework
//! substitute, Fig. 2).
//!
//! One simulator run drives the vehicle along a track under a chosen
//! design ([`Case`]): every sampling period the camera frame is
//! rendered, captured through the noisy sensor, processed by the
//! currently configured ISP, the invoked classifiers update the
//! situation estimate, the knobs are reconfigured (PR/control in the
//! same cycle, ISP one cycle later — Sec. III-D), perception measures
//! `y_L`, the situation-specific LQR computes the steering command, and
//! the command takes effect `τ` after the sampling instant. Physics
//! advances at the 5 ms Webots step throughout.

use crate::cases::Case;
use crate::degrade::{CoastInput, DegradationConfig, DegradationPolicy};
use crate::errprofile::ProfileFitter;
use crate::identify::{BundleBatch, ClassifierBundle, SituationEstimate};
use crate::knobs::{coarse_roi_for, fine_roi_for, speed_for, KnobTable, KnobTuning};
use crate::qoc::QocAccumulator;
use crate::tuner::{KnobTuner, TunerConfig, TunerEvent};
use lkas_control::controller::Measurement;
use lkas_control::design::{design_controller_cached, ControllerConfig};
use lkas_control::errprofile::PerceptionErrorProfile;
use lkas_faults::{apply_bayer_fault, derive_cycle_seed, FaultPlan, Misprediction};
use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::kernel::KernelBackend;
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::Scratch;
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_platform::schedule::ClassifierSet;
use lkas_runtime::{Counter, CycleDelta, FlightRecorder, Metrics, Stage, TelemetryBus, TraceSink};
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::SituationFeatures;
use lkas_scene::track::Track;
use lkas_vehicle::sim::{VehicleSim, VehicleState};
use lkas_vehicle::PHYSICS_STEP_S;
use std::sync::Arc;

/// Where the situation decisions come from.
#[derive(Debug, Clone)]
pub enum SituationSource {
    /// Ground truth from the track, still subject to the invocation
    /// schedule's staleness. Used by the design-time characterization
    /// (the designer *knows* the situation, Sec. III-B) and as the
    /// perfect-classifier ablation.
    Oracle,
    /// The trained classifier bundle runs on the actual ISP output —
    /// the full runtime stack.
    Trained(Arc<ClassifierBundle>),
}

/// Configuration of one HiL run.
///
/// Construct with [`HilConfig::new`] plus the `with_*` builders; the
/// struct is `#[non_exhaustive]`, so downstream crates go through the
/// builder surface (individual fields stay readable and assignable).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HilConfig {
    /// The design under evaluation.
    pub case: Case,
    /// Situation decision source.
    pub source: SituationSource,
    /// Characterization table for the knob lookup (Cases 4 and
    /// variable-invocation; ignored by Cases 1–3).
    pub knob_table: KnobTable,
    /// Sensor noise/gain model (defaults to the nominal automotive
    /// sensor). Overriding it models hardware drift away from the
    /// characterized operating point.
    pub sensor: SensorConfig,
    /// RNG seed for sensor noise.
    pub seed: u64,
    /// Hard wall-clock cap on simulated time (s).
    pub max_time_s: f64,
    /// Camera model (defaults to the 512×256 automotive camera).
    pub camera: Camera,
    /// Initial situation assumed by the estimator (defaults to the
    /// benign boot default).
    pub initial_estimate: Option<SituationFeatures>,
    /// Record a per-sample trace (measurement, truth, knobs) in the
    /// result. Off by default; used by diagnostics and the examples.
    pub record_trace: bool,
    /// Overrides the case's classifier invocation scheme (the extension
    /// hook for the paper's "more complete invocation scheme" future
    /// work). `None` uses [`Case::invocation_scheme`].
    pub scheme_override: Option<crate::invocation::InvocationScheme>,
    /// Telemetry registry recording per-stage timings and event
    /// counters for this run. Share one `Arc` across the runs of a
    /// sweep to aggregate; `None` disables recording.
    pub metrics: Option<Arc<Metrics>>,
    /// Deterministic fault campaign injected into the loop. `None`
    /// runs fault-free.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Graceful-degradation policy guarding against perception
    /// failures. `None` leaves the loop unhardened (the controller's
    /// observer coasts on misses, knobs never fall back).
    pub degradation: Option<DegradationConfig>,
    /// Per-cycle trace sink (one per run, obtained from a
    /// `TraceRecorder`). Records stage spans and instant events with
    /// deterministic virtual timestamps; `None` disables tracing.
    pub trace_sink: Option<TraceSink>,
    /// Worker threads for the row-tiled ISP stages (demosaic, denoise).
    /// `1` (the default) keeps every stage on the calling thread, which
    /// is also the only fully allocation-free steady state; outputs are
    /// byte-identical at any thread count.
    pub tile_threads: usize,
    /// Online re-characterization layer (see [`crate::tuner`]). When
    /// set on an ISP-adaptive case, knob decisions consult the bandit
    /// instead of the static table lookup; in safe mode the tuner
    /// falls back to the characterized prior. `None` (the default)
    /// keeps the static Table III behavior.
    pub tuner: Option<TunerConfig>,
    /// Per-cycle telemetry stream. When set, the loop publishes one
    /// [`CycleDelta`] per control sample (stage latency samples when a
    /// registry is attached, counter deltas, the lane-offset estimate
    /// vs ground truth, tuner/fault/degradation labels) with
    /// drop-oldest backpressure: a slow subscriber loses old frames
    /// (accounted on the bus as `stream_dropped`) but never stalls the
    /// control loop. `None` leaves streaming off.
    pub stream: Option<Arc<TelemetryBus>>,
    /// Flight recorder: a bounded ring of the most recent cycle events,
    /// dumpable as a post-mortem artifact. The loop feeds it the same
    /// [`CycleDelta`] it streams; with an auto-dump path configured the
    /// recorder writes itself out on safe-mode entry (`degraded_enter`).
    pub flight: Option<Arc<FlightRecorder>>,
    /// Fit a [`PerceptionErrorProfile`] from this run: every cycle's
    /// raw perception output (pre-degradation-substitution) is compared
    /// against ground truth and the moments are returned in
    /// [`HilResult::error_profile`]. Off by default. The fitter taps
    /// the loop directly (not the drop-oldest telemetry stream), so the
    /// fitted profile is exact and independent of stream consumers.
    pub error_fit: bool,
    /// Kernel backend for the data-parallel frame-path kernels
    /// (demosaic/denoise/gamut in the ISP, rectify/binarize in
    /// perception). The default (`KernelBackend::Lanes`) is
    /// bit-identical to `KernelBackend::Scalar`, the reference the
    /// tests select. A runtime knob only — deliberately not part of any
    /// campaign fingerprint.
    pub kernel_backend: KernelBackend,
}

/// One control sample of a recorded trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceSample {
    /// Sample time (ms).
    pub t_ms: f64,
    /// Measured `y_L` (m), if perception succeeded.
    pub y_l_measured: Option<f64>,
    /// Ground-truth `y_L` (m).
    pub y_l_true: f64,
    /// Steering command issued (rad).
    pub steering: f64,
    /// Active ISP configuration.
    pub isp: IspConfig,
    /// Active ROI.
    pub roi: lkas_perception::roi::Roi,
    /// Vehicle speed (m/s).
    pub vx: f64,
    /// Track sector index.
    pub sector: usize,
}

impl HilConfig {
    /// A configuration with the paper's Table III tunings preloaded.
    pub fn new(case: Case, source: SituationSource) -> Self {
        HilConfig {
            case,
            source,
            knob_table: KnobTable::paper_table3(),
            sensor: SensorConfig::default(),
            seed: 1,
            max_time_s: 600.0,
            camera: Camera::default_automotive(),
            initial_estimate: None,
            record_trace: false,
            scheme_override: None,
            metrics: None,
            fault_plan: None,
            degradation: None,
            trace_sink: None,
            tile_threads: 1,
            tuner: None,
            stream: None,
            flight: None,
            error_fit: false,
            kernel_backend: KernelBackend::default(),
        }
    }

    /// Replaces the knob table (builder style).
    pub fn with_knob_table(mut self, table: KnobTable) -> Self {
        self.knob_table = table;
        self
    }

    /// Replaces the camera (builder style).
    pub fn with_camera(mut self, camera: Camera) -> Self {
        self.camera = camera;
        self
    }

    /// Replaces the sensor model (builder style).
    pub fn with_sensor(mut self, sensor: SensorConfig) -> Self {
        self.sensor = sensor;
        self
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seeds the estimator with a known initial situation (builder
    /// style) — used by the design-time characterization, where the
    /// designer knows the situation up front.
    pub fn with_initial_estimate(mut self, situation: SituationFeatures) -> Self {
        self.initial_estimate = Some(situation);
        self
    }

    /// Overrides the case's classifier invocation scheme (builder
    /// style).
    pub fn with_scheme_override(mut self, scheme: crate::invocation::InvocationScheme) -> Self {
        self.scheme_override = Some(scheme);
        self
    }

    /// Enables per-sample trace recording (builder style).
    pub fn with_trace(mut self, record_trace: bool) -> Self {
        self.record_trace = record_trace;
        self
    }

    /// Replaces the simulated-time cap (builder style).
    pub fn with_max_time(mut self, max_time_s: f64) -> Self {
        self.max_time_s = max_time_s;
        self
    }

    /// Attaches a telemetry registry (builder style).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Injects a fault campaign into the run (builder style).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the graceful-degradation policy (builder style).
    pub fn with_degradation(mut self, config: DegradationConfig) -> Self {
        self.degradation = Some(config);
        self
    }

    /// Attaches a per-cycle trace sink (builder style).
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Sets the worker-thread count of the row-tiled ISP stages
    /// (builder style). Clamped to at least 1.
    pub fn with_tile_threads(mut self, threads: usize) -> Self {
        self.tile_threads = threads.max(1);
        self
    }

    /// Enables the online re-characterization tuner (builder style).
    pub fn with_tuner(mut self, tuner: TunerConfig) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Attaches a per-cycle telemetry stream (builder style).
    pub fn with_stream(mut self, bus: Arc<TelemetryBus>) -> Self {
        self.stream = Some(bus);
        self
    }

    /// Attaches a flight recorder (builder style).
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Enables perception-error-profile fitting (builder style).
    pub fn with_error_fit(mut self, error_fit: bool) -> Self {
        self.error_fit = error_fit;
        self
    }

    /// Selects the frame-path kernel backend (builder style).
    pub fn with_kernel_backend(mut self, backend: KernelBackend) -> Self {
        self.kernel_backend = backend;
        self
    }
}

/// Outcome of one HiL run.
#[derive(Debug, Clone)]
pub struct HilResult {
    /// QoC accumulator with per-sector statistics.
    pub qoc: QocAccumulator,
    /// `true` if the vehicle left the lane before finishing.
    pub crashed: bool,
    /// Sector index where the crash occurred.
    pub crash_sector: Option<usize>,
    /// Simulated time (s).
    pub time_s: f64,
    /// Number of control samples taken.
    pub samples: u64,
    /// Control samples in which perception found no lane.
    pub perception_failures: u64,
    /// Number of knob reconfigurations performed.
    pub reconfigurations: u64,
    /// Control samples whose situation estimate disagreed with ground
    /// truth (diagnostic; 0 for the oracle source only if no staleness).
    pub misidentifications: u64,
    /// Camera frames dropped by the fault plan.
    pub frame_drops: u64,
    /// Control samples with at least one injected fault active.
    pub faulted_cycles: u64,
    /// Control samples spent in degraded (safe) mode.
    pub degraded_samples: u64,
    /// Times the degradation policy entered safe mode.
    pub degraded_entries: u64,
    /// Misses bridged by the hold-and-extrapolate mechanism.
    pub measurement_holds: u64,
    /// Past-budget misses (or gated glitch frames) bridged by the
    /// degradation policy's observer coast instead of going blind
    /// (0 under the legacy hold policy).
    pub observer_coasts: u64,
    /// Coast-ending measurements accepted through the re-acquisition
    /// innovation gate.
    pub observer_reacquisitions: u64,
    /// Cycles whose scene render was rejected with a typed
    /// `RenderError` (the loop coasts frameless instead of aborting).
    pub render_errors: u64,
    /// Decision windows the online tuner opened (0 without a tuner).
    pub tuner_decisions: u64,
    /// Exploratory tuner picks (unexplored-arm visits plus
    /// epsilon-random draws).
    pub tuner_explorations: u64,
    /// Safe-mode entries in which the tuner fell back to the
    /// characterized prior.
    pub tuner_fallbacks: u64,
    /// The tuner's updated knob store (present only when a tuner ran:
    /// the live, queryable output of online re-characterization).
    pub knob_store: Option<crate::characterize::KnobStore>,
    /// Raw perception-error moments accumulated over this run (present
    /// only under [`HilConfig::error_fit`]). Kept as moments rather
    /// than a fitted profile so shard-split accumulations absorb
    /// exactly; [`HilResult::error_profile`] fits on demand.
    pub error_fit: Option<ProfileFitter>,
    /// Per-sample trace (empty unless [`HilConfig::record_trace`]).
    pub trace: Vec<TraceSample>,
}

impl HilResult {
    /// Overall MAE (Eq. (1)).
    pub fn overall_mae(&self) -> Option<f64> {
        self.qoc.overall_mae()
    }

    /// MAE over non-crashed sectors (the paper's footnote-7 rule).
    pub fn mae_excluding_crashed(&self) -> Option<f64> {
        self.qoc.mae_excluding_crashed()
    }

    /// The perception error profile fitted from this run's accumulated
    /// moments (`None` unless the run was configured with
    /// [`HilConfig::error_fit`]).
    pub fn error_profile(&self) -> Option<PerceptionErrorProfile> {
        self.error_fit.as_ref().map(ProfileFitter::fit)
    }
}

/// The closed-loop simulator.
#[derive(Debug)]
pub struct HilSimulator {
    track: Track,
    config: HilConfig,
}

impl HilSimulator {
    /// Creates a simulator for a track and configuration.
    pub fn new(track: Track, config: HilConfig) -> Self {
        HilSimulator { track, config }
    }

    /// Runs the closed loop to track completion, departure, or the time
    /// cap, and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if a controller design fails for a visited `(v, h, τ)`
    /// configuration (cannot happen for the built-in knob space).
    pub fn run(self) -> HilResult {
        let HilSimulator { track, config } = self;
        // Every telemetry event of the run is written once, into this
        // per-cycle record; sealing it feeds every consumer.
        let mut log = CycleLog::new(&config);
        let n_sectors = track.sectors().len();
        let scheme =
            config.scheme_override.clone().unwrap_or_else(|| config.case.invocation_scheme());
        // No cycle is open yet, so this one reaches the trace only.
        log.emit_with("run_start", || {
            Some(format!("case={:?} scheme={}", config.case, scheme.describe()))
        });
        let delay_set = config.case.delay_classifier_set();
        let fault_plan = config.fault_plan.clone();
        let plan_seed = fault_plan.as_ref().map_or(0, |p| p.seed);
        let mut policy = config.degradation.map(DegradationPolicy::new);
        let mut fitter = if config.error_fit { Some(ProfileFitter::new()) } else { None };

        // Initial knobs & controller.
        let mut estimate = match config.initial_estimate {
            Some(s) => SituationEstimate::with_initial(s),
            None => SituationEstimate::new(),
        };
        let mut knobs = knobs_for_case(config.case, &estimate.current(), &config.knob_table);
        // The online re-characterization layer only makes sense where
        // knob decisions are situation-adaptive (Case 4 and the
        // variable-invocation scheme); on the static cases it is inert.
        let mut tuner = if config.case.adapts_isp() {
            config.tuner.clone().map(|t| KnobTuner::new(t, &config.knob_table))
        } else {
            None
        };

        let mut controller_cfg = knobs.controller_config(delay_set);
        let (mut controller, hit) = design_controller_cached(&controller_cfg).expect(DESIGNABLE);
        log.count_lookup(hit);

        // Plant, camera stack.
        let renderer = SceneRenderer::new(config.camera.clone());
        let mut sensor = Sensor::new(config.sensor.clone(), config.seed);
        let mut isp = IspPipeline::new(knobs.isp).with_backend(config.kernel_backend);
        let mut staged_isp: Option<IspConfig> = None;
        let mut perception =
            Perception::new(PerceptionConfig::new(knobs.roi), config.camera.clone())
                .with_backend(config.kernel_backend);
        // Batched-inference state for the trained classifier trio (one
        // grouped GEMM per layer when a full re-identification window
        // invokes all three). Built once per run; bit-identical to the
        // sequential path.
        let mut bundle_batch = match &config.source {
            SituationSource::Trained(bundle) => Some(BundleBatch::new(bundle)),
            _ => None,
        };
        let mut vehicle = VehicleSim::new(track, VehicleState::centered(knobs.speed_kmph));

        // Reusable frame memory: every cycle writes into the same three
        // image buffers and draws intermediates from the two scratch
        // arenas, so the steady-state frame path performs no heap
        // allocations after the first frame sizes everything.
        let mut imaging_scratch = Scratch::with_threads(config.tile_threads.max(1));
        let mut perception_scratch = PerceptionScratch::new();
        let mut scene_rgb = RgbImage::new(1, 1);
        let mut raw = RawImage::new(2, 2);
        let mut rgb = RgbImage::new(1, 1);

        let mut qoc = QocAccumulator::new(n_sectors);
        let mut frame_index = 0u64;
        let mut trace: Vec<TraceSample> = Vec::new();

        let dt_ms = PHYSICS_STEP_S * 1000.0;
        let mut t_ms = 0.0f64;
        let mut next_sample_ms = 0.0f64;
        // Steering commands pending actuation: (activation time, angle).
        let mut pending: Vec<(f64, f64)> = Vec::new();
        let mut active_cmd = 0.0f64;
        let mut crashed = false;
        let mut crash_sector = None;

        while !vehicle.finished() && vehicle.time_s() < config.max_time_s {
            if t_ms + 1e-9 >= next_sample_ms {
                // ---- control sample -------------------------------------
                // Seal the previous cycle first: the inter-sample
                // Actuation recordings belong to it, and the tuner must
                // see cycle N's reward before cycle N+1's `select`.
                log.begin(frame_index, tuner.as_mut());
                log.incr(Counter::Cycles);
                let faults =
                    fault_plan.as_ref().map(|p| p.faults_at(frame_index)).unwrap_or_default();
                if faults.any() {
                    log.incr(Counter::FaultsInjected);
                    for label in faults.trace_labels() {
                        log.emit(label);
                    }
                }
                if fault_plan.is_some() {
                    let act = faults.actuation.map(lkas_faults::ActuationFault::to_actuator);
                    if act.is_some() && vehicle.actuator_fault().is_none() {
                        log.incr(Counter::ActuationFaults);
                    }
                    vehicle.set_actuator_fault(act);
                }
                // Safe-mode state as of the previous cycle's outcome.
                let degraded = policy.as_ref().map_or(false, DegradationPolicy::is_degraded);
                if degraded {
                    log.incr(Counter::DegradedCycles);
                }
                // Apply the ISP knob staged in the previous cycle
                // (Sec. III-D: "ISP knobs are configured in the next
                // cycle").
                if let Some(cfg) = staged_isp.take() {
                    isp.set_config(cfg);
                }
                // Camera pipeline — skipped entirely on a dropped frame,
                // and abandoned for the cycle on a render rejection. The
                // stages write into the run's reusable buffers.
                let have_frame = if faults.drop_frame {
                    log.incr(Counter::FrameDrops);
                    false
                } else {
                    let (s, d, psi) = vehicle.camera_pose();
                    let rendered = log.timed(Stage::Render, || {
                        renderer.render_into(vehicle.track(), s, d, psi, &mut scene_rgb)
                    });
                    match rendered {
                        Ok(()) => {
                            log.timed(Stage::Sensor, || {
                                sensor.capture_into(&scene_rgb, 1.0, &mut raw)
                            });
                            if let Some(kind) = faults.bayer {
                                apply_bayer_fault(kind, &mut raw, plan_seed, frame_index);
                            }
                            log.timed(Stage::Isp, || {
                                isp.process_into(&raw, &mut imaging_scratch, &mut rgb)
                            });
                            true
                        }
                        Err(e) => {
                            // An invalid camera no longer aborts the run:
                            // the cycle coasts frameless, like a dropped
                            // frame, and the rejection is counted.
                            log.incr(Counter::RenderErrors);
                            log.emit_with("render_error", || Some(e.to_string()));
                            false
                        }
                    }
                };
                if have_frame {
                    log.spans(&[Stage::Render, Stage::Sensor, Stage::Isp]);
                }

                // Situation identification with the scheduled
                // classifiers (none on a dropped frame; road only
                // while degraded — see `classifiers_for_frame_faulted`).
                let invoked = scheme.classifiers_for_frame_faulted(
                    frame_index,
                    controller_cfg.h_ms,
                    faults.drop_frame,
                    degraded,
                );
                let previous_estimate = estimate.current();
                log.timed(Stage::Classifier, || match &config.source {
                    SituationSource::Oracle => {
                        // A frame classifier sees the *preview* region,
                        // so the oracle reports the situation ~12 m
                        // ahead (mid-ROI), anticipating transitions the
                        // way the trained classifiers do.
                        let truth = vehicle.preview_situation(ORACLE_PREVIEW_M);
                        estimate.update_from_truth(&truth, invoked);
                    }
                    SituationSource::Trained(bundle) => {
                        if have_frame {
                            let batch =
                                bundle_batch.as_mut().expect("batch built for trained source");
                            estimate.update_from_frame_with(
                                bundle,
                                batch,
                                &rgb,
                                &config.camera,
                                invoked,
                            );
                        }
                    }
                });
                log.spans(&[Stage::Classifier]);
                if let Some(mp) = faults.mispredict {
                    // A dropped frame produces no classifier output to
                    // corrupt.
                    if !faults.drop_frame {
                        let forced = match mp {
                            Misprediction::Force(s) => s,
                            Misprediction::Confuse => lkas_nn::classifiers::confuse_situation(
                                &vehicle.preview_situation(ORACLE_PREVIEW_M),
                                derive_cycle_seed(plan_seed, frame_index),
                            ),
                        };
                        estimate.force(forced);
                        log.incr(Counter::ForcedMispredictions);
                    }
                }
                if estimate.current() != previous_estimate {
                    log.incr(Counter::SituationSwitches);
                    log.emit_with("situation_switch", || Some(estimate.current().describe()));
                }
                if estimate.current() != vehicle.preview_situation(ORACLE_PREVIEW_M) {
                    log.incr(Counter::Misidentifications);
                }

                // Knob reconfiguration: PR/control now, ISP next cycle.
                // With the tuner attached the bandit chooses among the
                // layout-compatible arms (and falls back to the
                // characterized prior in safe mode); otherwise the
                // static table decides, overridden in safe mode by the
                // degradation policy's pre-characterized fallback.
                let new_knobs = match tuner.as_mut() {
                    Some(t) => {
                        let choice = t.select(&estimate.current(), degraded);
                        match choice.event {
                            Some(TunerEvent::Decision { explored }) => {
                                log.incr(Counter::TunerDecisions);
                                if explored {
                                    log.incr(Counter::TunerExplorations);
                                }
                                let label =
                                    if explored { "tuner_explore" } else { "tuner_decision" };
                                log.emit_with(label, || {
                                    Some(format!(
                                        "isp={} roi={}",
                                        choice.tuning.isp.name(),
                                        choice.tuning.roi.name()
                                    ))
                                });
                            }
                            Some(TunerEvent::Fallback) => {
                                log.incr(Counter::TunerFallbacks);
                                log.emit("tuner_fallback");
                            }
                            None => {}
                        }
                        choice.tuning
                    }
                    None => match (&policy, degraded) {
                        (Some(p), true) => p.safe_tuning(estimate.current().layout),
                        _ => knobs_for_case(config.case, &estimate.current(), &config.knob_table),
                    },
                };
                if new_knobs != knobs {
                    log.incr(Counter::KnobReconfigurations);
                    if new_knobs.roi != knobs.roi {
                        perception = Perception::new(
                            PerceptionConfig::new(new_knobs.roi),
                            config.camera.clone(),
                        )
                        .with_backend(config.kernel_backend);
                        log.incr(Counter::PerceptionReconfigurations);
                        log.emit("reconfig:perception");
                    }
                    if new_knobs.isp != knobs.isp {
                        staged_isp = Some(new_knobs.isp);
                        log.incr(Counter::IspReconfigurations);
                        log.emit("reconfig:isp");
                    }
                    vehicle.set_target_speed_kmph(new_knobs.speed_kmph);
                    knobs = new_knobs;
                }
                // Gain scheduling: the LQR/observer are designed per
                // speed; during the (≈1 s) speed transition after a
                // situation switch the controller matching the *actual*
                // speed is used, then handed over at the midpoint.
                let design_speed = if vehicle.state().vx > lkas_control::model::kmph_to_mps(40.0) {
                    50.0
                } else {
                    30.0
                };
                // In safe mode only the road classifier runs, so the
                // loop is also scheduled for it: the shorter h/τ mean a
                // fixed-cycle outage costs less wall-clock time blind.
                let cycle_delay_set = if degraded { ClassifierSet::road_only() } else { delay_set };
                let mut new_cfg = ControllerConfig {
                    speed_kmph: design_speed,
                    ..knobs.controller_config(cycle_delay_set)
                };
                if config.case == Case::VariableInvocation && !degraded {
                    // Sec. IV-E: the variable scheme keeps the
                    // situation-tuned sampling period (as if all three
                    // classifiers ran) but enjoys the shorter
                    // single-classifier delay — the QoC gain the paper
                    // reports comes from the reduced τ, not a faster h.
                    new_cfg.h_ms = knobs.controller_config(ClassifierSet::all()).h_ms;
                }
                if new_cfg != controller_cfg {
                    let (mut next, hit) = log
                        .timed(Stage::Control, || design_controller_cached(&new_cfg))
                        .expect(DESIGNABLE);
                    log.count_lookup(hit);
                    next.adopt_state(&controller);
                    controller = next;
                    controller_cfg = new_cfg;
                    log.incr(Counter::ControlReconfigurations);
                    log.emit("reconfig:control");
                }

                // Perception, then the degradation policy's substitution.
                let raw_y_l = if have_frame {
                    let out = log.timed(Stage::Perception, || {
                        perception.process_into(&rgb, &mut perception_scratch)
                    });
                    match out {
                        Ok(out) => Some(out.y_l),
                        Err(_) => {
                            log.incr(Counter::PerceptionFailures);
                            None
                        }
                    }
                } else {
                    None
                };
                if have_frame {
                    log.spans(&[Stage::Perception]);
                }
                // The cycle record carries the raw perception output —
                // before any degradation hold substitutes a synthetic
                // measurement — next to the ground truth. The tuner
                // reads its reward from exactly this field when the
                // cycle is sealed.
                log.y_l_measured = raw_y_l;
                log.y_l_true = Some(vehicle.true_y_l());
                if let Some(f) = fitter.as_mut() {
                    f.record(raw_y_l, vehicle.true_y_l());
                }
                let y_l = match policy.as_mut() {
                    Some(p) => {
                        // The coast context: the command actuated over
                        // the elapsed period, the (design-quantized)
                        // speed the loop is scheduled for, and the
                        // gyro — a separate device, live through camera
                        // outages.
                        let coast_input = CoastInput {
                            steering: active_cmd,
                            yaw_rate: vehicle.state().r,
                            speed_kmph: design_speed,
                            h_ms: controller_cfg.h_ms,
                        };
                        let obs = p.observe_with(raw_y_l, &coast_input);
                        if obs.held {
                            log.incr(Counter::MeasurementHolds);
                            log.emit("measurement_hold");
                        }
                        if obs.coasted {
                            log.incr(Counter::ObserverCoasts);
                            log.emit("observer_coast");
                        }
                        if obs.reacquired {
                            log.incr(Counter::ObserverReacquisitions);
                            log.emit("observer_reacquire");
                        }
                        if obs.entered {
                            log.incr(Counter::DegradedEntries);
                            log.emit("degraded_enter");
                        }
                        if obs.exited {
                            log.incr(Counter::DegradedExits);
                            log.emit("degraded_exit");
                        }
                        obs.y_l
                    }
                    None => raw_y_l,
                };
                // On blind cycles (`y_l == None`) the controller coasts:
                // the LQR keeps acting on the open-loop observer
                // estimate, which completes any in-flight lateral
                // correction and then decays to near-zero steering —
                // the safest blind behavior (an explicit zero-steering
                // override would freeze a mid-correction heading error
                // and integrate it into a departure over a long outage).
                let u = log.timed(Stage::Control, || {
                    controller.step(&Measurement { y_l, yaw_rate: vehicle.state().r })
                });
                // The command's actuation slot belongs to this cycle in
                // virtual time, though it takes effect τ later.
                log.spans(&[Stage::Control, Stage::Actuation]);
                if faults.extra_delay_ms > 0.0 {
                    log.incr(Counter::DeadlineOverruns);
                }
                pending.push((t_ms + controller_cfg.tau_ms + faults.extra_delay_ms, u));
                if config.record_trace {
                    trace.push(TraceSample {
                        t_ms,
                        y_l_measured: y_l,
                        y_l_true: vehicle.true_y_l(),
                        steering: u,
                        isp: isp.config(),
                        roi: knobs.roi,
                        vx: vehicle.state().vx,
                        sector: vehicle.sector_index(),
                    });
                }

                frame_index += 1;
                next_sample_ms = t_ms + controller_cfg.h_ms;
            }

            // Actuate the newest command whose activation time passed,
            // then advance physics. Timed as the actuation stage; this
            // runs once per 5 ms physics step, so its count exceeds the
            // cycle count.
            let sector = log.timed(Stage::Actuation, || {
                while let Some(&(act_t, cmd)) = pending.first() {
                    if act_t <= t_ms + 1e-9 {
                        active_cmd = cmd;
                        pending.remove(0);
                    } else {
                        break;
                    }
                }
                let sector = vehicle.sector_index();
                vehicle.step(active_cmd);
                qoc.record(sector, vehicle.true_y_l());
                sector
            });
            t_ms += dt_ms;

            if vehicle.departed() {
                qoc.mark_crashed(sector);
                crashed = true;
                crash_sector = Some(sector);
                break;
            }
        }

        // Final seal: the last cycle (including the trailing
        // physics-step Actuation recordings) reaches every consumer,
        // and the tuner's open reward window, before that window is
        // committed below.
        log.seal(tuner.as_mut());

        HilResult {
            qoc,
            crashed,
            crash_sector,
            time_s: vehicle.time_s(),
            samples: log.total(Counter::Cycles),
            perception_failures: log.total(Counter::PerceptionFailures),
            reconfigurations: log.total(Counter::KnobReconfigurations),
            misidentifications: log.total(Counter::Misidentifications),
            frame_drops: log.total(Counter::FrameDrops),
            faulted_cycles: log.total(Counter::FaultsInjected),
            degraded_samples: log.total(Counter::DegradedCycles),
            degraded_entries: log.total(Counter::DegradedEntries),
            measurement_holds: log.total(Counter::MeasurementHolds),
            observer_coasts: log.total(Counter::ObserverCoasts),
            observer_reacquisitions: log.total(Counter::ObserverReacquisitions),
            render_errors: log.total(Counter::RenderErrors),
            tuner_decisions: log.total(Counter::TunerDecisions),
            tuner_explorations: log.total(Counter::TunerExplorations),
            tuner_fallbacks: log.total(Counter::TunerFallbacks),
            knob_store: tuner.map(|mut t| {
                t.flush();
                t.into_store()
            }),
            error_fit: fitter,
            trace,
        }
    }
}

/// Preview distance of the oracle situation source (m) — the middle of
/// the perception ROIs, i.e. what the camera actually looks at.
pub const ORACLE_PREVIEW_M: f64 = 12.0;

/// The knob policy of each case (Table V).
pub fn knobs_for_case(case: Case, estimate: &SituationFeatures, table: &KnobTable) -> KnobTuning {
    match case {
        Case::Case1 => KnobTuning::conservative(),
        Case::Case2 => KnobTuning::new(
            IspConfig::S0,
            coarse_roi_for(estimate.layout),
            speed_for(estimate.layout),
        ),
        Case::Case3 => KnobTuning::new(
            IspConfig::S0,
            fine_roi_for(estimate.layout, estimate.lane_form),
            speed_for(estimate.layout),
        ),
        Case::Case4 | Case::VariableInvocation => table.lookup(estimate),
    }
}

/// What a controller design for a visited `(v, h, τ)` must do.
const DESIGNABLE: &str = "controller design for built-in knob space";

/// The run's per-cycle record. Every stage timing, counter increment,
/// label and lane offset of the open cycle is written here once;
/// [`CycleLog::seal`] then hands the cycle to every consumer — the
/// registry, the stream, the flight recorder, the tuner and the run
/// totals — so `fold(stream) == registry` holds by construction. Trace
/// spans and instants go straight to the sink as they happen.
struct CycleLog<'a> {
    metrics: Option<&'a Metrics>,
    sink: Option<&'a TraceSink>,
    bus: Option<&'a TelemetryBus>,
    flight: Option<&'a FlightRecorder>,
    /// The open cycle; `None` before the first control sample.
    cycle: Option<u64>,
    /// Stage timings of the open cycle (taken only with a registry).
    samples: Vec<(Stage, u64)>,
    counts: [u64; Counter::ALL.len()],
    totals: [u64; Counter::ALL.len()],
    /// Event labels of the open cycle (kept only for a stream or
    /// flight recorder).
    labels: Vec<&'static str>,
    y_l_measured: Option<f64>,
    y_l_true: Option<f64>,
}

impl<'a> CycleLog<'a> {
    fn new(config: &'a HilConfig) -> Self {
        CycleLog {
            metrics: config.metrics.as_deref(),
            sink: config.trace_sink.as_ref(),
            bus: config.stream.as_deref(),
            flight: config.flight.as_deref(),
            cycle: None,
            samples: Vec::new(),
            counts: [0; Counter::ALL.len()],
            totals: [0; Counter::ALL.len()],
            labels: Vec::new(),
            y_l_measured: None,
            y_l_true: None,
        }
    }

    fn wants_delta(&self) -> bool {
        self.bus.is_some() || self.flight.is_some()
    }

    /// Seals the open cycle, if any, and opens `cycle`.
    fn begin(&mut self, cycle: u64, tuner: Option<&mut KnobTuner>) {
        if self.cycle.is_some() {
            self.seal(tuner);
        }
        self.cycle = Some(cycle);
    }

    /// Runs `work`, timed against `stage` when a registry is attached.
    fn timed<T>(&mut self, stage: Stage, work: impl FnOnce() -> T) -> T {
        if self.metrics.is_none() {
            return work();
        }
        let started = std::time::Instant::now();
        let out = work();
        self.samples.push((stage, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)));
        out
    }

    fn incr(&mut self, counter: Counter) {
        self.counts[counter as usize] += 1;
    }

    /// Counts one design-cache lookup as a hit or a miss.
    fn count_lookup(&mut self, hit: bool) {
        self.incr(if hit { Counter::ControllerCacheHits } else { Counter::ControllerCacheMisses });
    }

    fn total(&self, counter: Counter) -> u64 {
        self.totals[counter as usize]
    }

    fn emit(&mut self, name: &'static str) {
        self.emit_with(name, || None);
    }

    /// Records an event: a trace instant (its detail built only when a
    /// sink is attached) and a label of the open cycle.
    fn emit_with(&mut self, name: &'static str, detail: impl FnOnce() -> Option<String>) {
        if let Some(s) = self.sink {
            s.instant(self.cycle.unwrap_or(0), name, detail());
        }
        if self.cycle.is_some() && self.wants_delta() {
            self.labels.push(name);
        }
    }

    fn spans(&self, stages: &[Stage]) {
        if let Some(s) = self.sink {
            for &stage in stages {
                s.span(self.cycle.unwrap_or(0), stage);
            }
        }
    }

    /// Hands the open cycle to its consumers and clears it. Counts
    /// taken before the first cycle (the initial controller lookup)
    /// still reach the registry and the totals when the run takes no
    /// cycle at all.
    fn seal(&mut self, tuner: Option<&mut KnobTuner>) {
        if let Some(m) = self.metrics {
            for &(stage, ns) in &self.samples {
                m.record_ns(stage, ns);
            }
            for (&counter, &n) in Counter::ALL.iter().zip(&self.counts) {
                if n > 0 {
                    m.add(counter, n);
                }
            }
        }
        if let Some(cycle) = self.cycle {
            if self.wants_delta() {
                let delta = self.delta(cycle);
                if let Some(b) = self.bus {
                    b.publish(&delta);
                }
                if let Some(f) = self.flight {
                    f.ingest(&delta);
                }
            }
            if let Some(t) = tuner {
                t.record(self.y_l_measured);
            }
        }
        for (total, count) in self.totals.iter_mut().zip(&mut self.counts) {
            *total += std::mem::take(count);
        }
        self.samples.clear();
        self.labels.clear();
        self.y_l_measured = None;
        self.y_l_true = None;
    }

    /// The open cycle in its `lkas-stream-v1` wire form.
    fn delta(&self, cycle: u64) -> CycleDelta {
        let mut delta = CycleDelta::new(cycle);
        for stage in Stage::ALL {
            let ns: Vec<u64> =
                self.samples.iter().filter(|(s, _)| *s == stage).map(|&(_, ns)| ns).collect();
            if !ns.is_empty() {
                delta.samples.push((stage.name().to_string(), ns));
            }
        }
        delta.counters = Counter::ALL
            .iter()
            .zip(&self.counts)
            .filter(|(_, &n)| n > 0)
            .map(|(counter, &n)| (counter.name().to_string(), n))
            .collect();
        delta.y_l_measured = self.y_l_measured;
        delta.y_l_true = self.y_l_true;
        delta.labels = self.labels.iter().map(|l| l.to_string()).collect();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_scene::situation::TABLE3_SITUATIONS;

    fn test_camera() -> Camera {
        Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
    }

    fn short_run(case: Case, situation_idx: usize, length: f64) -> HilResult {
        let track = Track::for_situation(&TABLE3_SITUATIONS[situation_idx], length);
        let config =
            HilConfig::new(case, SituationSource::Oracle).with_camera(test_camera()).with_seed(42);
        HilSimulator::new(track, config).run()
    }

    #[test]
    fn case1_keeps_lane_on_straight_day() {
        let r = short_run(Case::Case1, 0, 150.0);
        assert!(!r.crashed, "case 1 must survive the benign situation");
        let mae = r.overall_mae().expect("samples recorded");
        assert!(mae < 0.15, "MAE = {mae}");
        assert!(r.samples > 100);
    }

    #[test]
    fn case1_crashes_on_turns() {
        // Fixed ROI 1 on a right turn: the paper's failure case.
        let r = short_run(Case::Case1, 7, 400.0);
        assert!(r.crashed, "case 1 must fail on a right turn");
    }

    #[test]
    fn case2_survives_plain_turns() {
        let r = short_run(Case::Case2, 7, 300.0);
        assert!(!r.crashed, "case 2 handles continuous-lane turns");
    }

    #[test]
    fn case3_survives_dotted_turns() {
        let r = short_run(Case::Case3, 19, 300.0); // left, white dotted, day
        assert!(!r.crashed, "case 3 handles dotted turns");
    }

    #[test]
    fn case4_uses_isp_approximation() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 150.0);
        let config =
            HilConfig::new(Case::Case4, SituationSource::Oracle).with_camera(test_camera());
        let r = HilSimulator::new(track, config).run();
        assert!(!r.crashed);
        // Knob policy check: the Table III tuning for situation 1 is S3.
        let knobs = knobs_for_case(Case::Case4, &TABLE3_SITUATIONS[0], &KnobTable::paper_table3());
        assert_eq!(knobs.isp, IspConfig::S3);
    }

    #[test]
    fn reconfiguration_happens_on_situation_change() {
        // Two-sector track: straight then right turn.
        use lkas_scene::track::Sector;
        let s1 = Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0);
        let s2 = Sector::for_situation(&TABLE3_SITUATIONS[7], 200.0);
        let track = Track::new(vec![s1, s2]);
        let config =
            HilConfig::new(Case::Case2, SituationSource::Oracle).with_camera(test_camera());
        let r = HilSimulator::new(track, config).run();
        assert!(!r.crashed, "case 2 must survive the transition");
        assert!(r.reconfigurations >= 1, "ROI/speed must switch at the sector boundary");
    }

    #[test]
    fn scheme_override_disables_adaptation() {
        // Case 2 with an override that never invokes any classifier
        // keeps the boot knobs forever: no reconfigurations happen and
        // the situation estimate stays stale on a turn it would
        // otherwise identify.
        let track = Track::for_situation(&TABLE3_SITUATIONS[7], 300.0);
        let run = |override_none: bool| {
            let mut config = HilConfig::new(Case::Case2, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42);
            if override_none {
                config =
                    config.with_scheme_override(crate::invocation::InvocationScheme::EveryFrame(
                        lkas_platform::schedule::ClassifierSet::none(),
                    ));
            }
            HilSimulator::new(track.clone(), config).run()
        };
        let blinded = run(true);
        assert_eq!(blinded.reconfigurations, 0, "no classifier ⇒ no knob switches");
        assert!(blinded.misidentifications > 0, "estimate must go stale on the turn");
        let seeing = run(false);
        assert!(seeing.reconfigurations >= 1, "the un-overridden case adapts");
    }

    #[test]
    fn results_are_deterministic() {
        let a = short_run(Case::Case3, 0, 120.0);
        let b = short_run(Case::Case3, 0, 120.0);
        assert_eq!(a.overall_mae(), b.overall_mae());
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn fault_free_runs_report_zero_fault_counters() {
        let r = short_run(Case::Case3, 0, 120.0);
        assert_eq!(r.frame_drops, 0);
        assert_eq!(r.faulted_cycles, 0);
        assert_eq!(r.degraded_samples, 0);
        assert_eq!(r.degraded_entries, 0);
        assert_eq!(r.measurement_holds, 0);
        assert_eq!(r.observer_coasts, 0);
        assert_eq!(r.observer_reacquisitions, 0);
        assert_eq!(r.render_errors, 0);
        assert!(r.error_fit.is_none(), "no moments without error_fit");
    }

    #[test]
    fn a_run_without_cycles_still_counts_its_initial_design_lookup() {
        use lkas_runtime::TelemetryBus;
        let metrics = Arc::new(Metrics::new());
        let bus = Arc::new(TelemetryBus::new(8));
        let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_max_time(0.0)
            .with_metrics(Arc::clone(&metrics))
            .with_stream(Arc::clone(&bus))
            .with_tuner(TunerConfig::new());
        let r = HilSimulator::new(Track::for_situation(&TABLE3_SITUATIONS[0], 60.0), config).run();
        assert_eq!(r.samples, 0);
        assert_eq!(bus.published(), 0, "no cycle, no delta");
        let snap = metrics.snapshot();
        let lookups = snap.counter("controller_cache_hits").unwrap()
            + snap.counter("controller_cache_misses").unwrap();
        assert_eq!(lookups, 1, "the initial controller lookup reaches the registry");
        assert_eq!(snap.counter("cycles"), Some(0));
    }

    #[test]
    fn invalid_camera_is_counted_not_fatal() {
        // A camera that only a deserialized config could produce (the
        // constructor panics on it): the negative focal length still
        // rectifies (mirrored homography), but every cycle's render is
        // rejected, so the loop coasts frameless instead of aborting and
        // the rejections are reported.
        let camera: Camera = serde_json::from_str(
            r#"{"width":256,"height":128,"focal":-150.0,"cu":128.0,"cv":64.0,
                "height_m":1.3,"pitch":0.1}"#,
        )
        .unwrap();
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 60.0);
        let metrics = Arc::new(Metrics::new());
        let config = HilConfig::new(Case::Case1, SituationSource::Oracle)
            .with_camera(camera)
            .with_max_time(20.0)
            .with_metrics(Arc::clone(&metrics));
        let r = HilSimulator::new(track, config).run();
        assert!(r.samples > 0);
        assert_eq!(r.render_errors, r.samples, "every cycle's render must be rejected");
        assert_eq!(r.perception_failures, 0, "perception never ran on a frameless cycle");
        assert_eq!(metrics.snapshot().counter("render_errors"), Some(r.samples));
    }

    #[test]
    fn tile_threads_do_not_change_the_trajectory() {
        // The tiled ISP stages are byte-identical across thread counts,
        // so the whole closed-loop trajectory is too.
        let run = |threads: usize| {
            let track = Track::for_situation(&TABLE3_SITUATIONS[7], 250.0);
            let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_tile_threads(threads);
            HilSimulator::new(track, config).run()
        };
        let serial = run(1);
        let tiled = run(4);
        assert_eq!(serial.overall_mae(), tiled.overall_mae());
        assert_eq!(serial.samples, tiled.samples);
        assert_eq!(serial.crashed, tiled.crashed);
    }

    #[test]
    fn tuned_runs_are_invariant_across_tile_threads() {
        // The online tuner consumes only the (deterministic) closed-loop
        // measurements, so its decision stream — and therefore the whole
        // tuned trajectory — must not depend on how many worker threads
        // the tiled ISP stages use.
        let run = |threads: usize| {
            let track = Track::for_situation(&TABLE3_SITUATIONS[6], 180.0);
            let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_sensor(SensorConfig { read_noise: 0.05, shot_noise: 0.06, gain: 1.0 })
                .with_initial_estimate(TABLE3_SITUATIONS[6])
                .with_tuner(TunerConfig::new().with_seed(42))
                .with_tile_threads(threads);
            HilSimulator::new(track, config).run()
        };
        let serial = run(1);
        let tiled = run(4);
        assert_eq!(serial.overall_mae(), tiled.overall_mae());
        assert_eq!(serial.samples, tiled.samples);
        assert_eq!(serial.tuner_decisions, tiled.tuner_decisions);
        assert_eq!(serial.tuner_explorations, tiled.tuner_explorations);
        assert_eq!(serial.reconfigurations, tiled.reconfigurations);
        let (a, b) = (serial.knob_store.unwrap(), tiled.knob_store.unwrap());
        assert!(serial.tuner_decisions > 0, "the run must be long enough to commit windows");
        assert_eq!(a.version(), b.version(), "learned stores must match");
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_runs_replay_identically() {
        let mk = || {
            let plan = Arc::new(
                FaultPlan::named("storm", 9).hot_pixels(20, 40, 0.05).exposure_glitch(80, 20, 2.0),
            );
            let track = Track::for_situation(&TABLE3_SITUATIONS[0], 150.0);
            let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_fault_plan(plan);
            HilSimulator::new(track, config).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.overall_mae(), b.overall_mae());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.faulted_cycles, b.faulted_cycles);
        assert_eq!(a.perception_failures, b.perception_failures);
        assert!(a.faulted_cycles >= 60, "both windows must land inside the run");
    }

    #[test]
    fn scalar_kernels_replay_the_default_trace_bit_for_bit() {
        // The frame-path kernel backend is a runtime knob: the scalar
        // reference must reproduce the default lane backend's whole
        // closed-loop trajectory, through ISP and ROI switches and a
        // Bayer fault storm. A drifting lane kernel surfaces here as a
        // different measurement, not only as a pixel delta.
        use lkas_scene::track::Sector;
        let run = |backend: KernelBackend| {
            let plan = Arc::new(
                FaultPlan::named("bayer-storm", 3)
                    .hot_pixels(30, 40, 0.03)
                    .row_banding(150, 40, 3, 0.35)
                    .exposure_glitch(300, 30, 2.5),
            );
            let track = Track::new(vec![
                Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0),
                Sector::for_situation(&TABLE3_SITUATIONS[7], 200.0),
            ]);
            let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_fault_plan(plan)
                .with_trace(true)
                .with_kernel_backend(backend);
            HilSimulator::new(track, config).run()
        };
        let lanes = run(KernelBackend::default());
        let scalar = run(KernelBackend::Scalar);
        let first = lanes.trace[0];
        assert!(lanes.trace.iter().any(|s| s.isp != first.isp), "the ISP knob must switch");
        assert!(lanes.trace.iter().any(|s| s.roi != first.roi), "the ROI knob must switch");
        assert!(lanes.faulted_cycles >= 110, "every Bayer window must land inside the run");
        let bits = |r: &HilResult| {
            r.trace
                .iter()
                .map(|s| {
                    (
                        s.t_ms.to_bits(),
                        s.y_l_measured.map(f64::to_bits),
                        s.y_l_true.to_bits(),
                        s.steering.to_bits(),
                        (s.isp, s.roi, s.vx.to_bits(), s.sector),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&scalar), bits(&lanes));
    }

    #[test]
    fn short_drop_burst_is_bridged_by_holds_without_safe_mode() {
        // A 3-frame drop: within the miss budget (held) and below the
        // safe-mode threshold (no degraded entry).
        let plan = Arc::new(FaultPlan::named("blip", 1).drop_burst(40, 3));
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 150.0);
        let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_fault_plan(plan)
            .with_degradation(DegradationConfig::default());
        let r = HilSimulator::new(track, config).run();
        assert!(!r.crashed);
        assert_eq!(r.frame_drops, 3);
        assert_eq!(r.measurement_holds, 3);
        assert_eq!(r.degraded_entries, 0);
        assert_eq!(r.degraded_samples, 0);
    }

    #[test]
    fn forced_misprediction_reconfigures_and_is_counted() {
        // Force a right-turn estimate for 10 frames on a straight: the
        // knobs chase the lie (and come back), every lied frame counts
        // as a misidentification.
        let wrong = TABLE3_SITUATIONS[7];
        let plan = Arc::new(FaultPlan::named("liar", 1).force_situation(30, 10, wrong));
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 200.0);
        let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_fault_plan(plan);
        let r = HilSimulator::new(track, config).run();
        assert!(!r.crashed, "a brief wrong tuning on a straight is survivable");
        assert!(r.misidentifications >= 10, "misidentifications = {}", r.misidentifications);
        assert!(r.reconfigurations >= 2, "into the wrong tuning and back");
        assert!(r.faulted_cycles >= 10);
    }

    #[test]
    fn degradation_policy_survives_frame_drop_burst_that_crashes_unhardened() {
        // The acceptance scenario: a frame-drop burst starts while the
        // approach straight still fills the camera preview, so the
        // unhardened Case 3 loop never learns about the upcoming right
        // turn — it carries its stale straight knobs (50 km/h) blind
        // into the curve and departs about 1.6 s later (22 m of blind
        // arc exhausts the departure limit at R = 110 m). The hardened
        // loop exhausts its miss budget early on the straight, falls
        // back to safe mode (30 km/h), re-acquires before the curve,
        // recenters, and takes the turn sighted.
        use lkas_scene::track::Sector;
        let plan = Arc::new(FaultPlan::named("blindfold", 7).drop_burst(150, 500));
        let run = |hardened: bool| {
            let track = Track::new(vec![
                Sector::for_situation(&TABLE3_SITUATIONS[0], 300.0),
                Sector::for_situation(&TABLE3_SITUATIONS[7], 140.0),
                Sector::for_situation(&TABLE3_SITUATIONS[0], 80.0),
            ]);
            let mut config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(7)
                .with_fault_plan(Arc::clone(&plan));
            if hardened {
                config = config.with_degradation(DegradationConfig::default());
            }
            HilSimulator::new(track, config).run()
        };
        let unhardened = run(false);
        assert!(unhardened.crashed, "blind turn entry at 50 km/h must depart");
        let hardened = run(true);
        assert!(!hardened.crashed, "safe mode must survive the same burst");
        assert!(hardened.degraded_entries >= 1, "the burst must trip safe mode");
        assert!(hardened.degraded_samples > 0);
        assert!(hardened.measurement_holds >= 1, "the first misses are bridged");
        assert!(hardened.frame_drops > 0);
    }

    #[test]
    fn observer_coast_outlasts_hold_and_extrapolate_through_a_blind_burst() {
        use crate::degrade::CoastPolicy;
        // The Case-3 blind-burst acceptance scenario: a 10 s frame-drop
        // burst on a straight at 50 km/h. The hold arm bridges 4 cycles,
        // then goes honestly blind: the controller coasts open-loop,
        // the estimate drifts from the noise-fed state it froze at, and
        // re-acquisition finds the vehicle so far displaced that the
        // recovery transient departs the lane. The observer arm coasts
        // on the gyro-corrected Kalman estimate, keeps the controller's
        // own observer measurement-fed throughout, re-acquires through
        // the innovation gate, and finishes the track.
        let run = |coast: CoastPolicy| {
            let plan = Arc::new(FaultPlan::named("blind-burst", 7).drop_burst(200, 400));
            let track = Track::for_situation(&TABLE3_SITUATIONS[0], 600.0);
            let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(7)
                .with_fault_plan(plan)
                .with_degradation(DegradationConfig::default().with_coast(coast));
            HilSimulator::new(track, config).run()
        };
        let hold = run(CoastPolicy::HoldAndExtrapolate);
        let observer = run(CoastPolicy::ObserverCoast);
        // The gated acceptance criterion: the observer coast survives
        // the burst at least as long as hold-and-extrapolate (here:
        // strictly longer — it does not crash at all).
        assert!(hold.crashed, "the hold arm must depart during/after the burst");
        assert!(!observer.crashed, "the observer arm must survive the same burst");
        assert!(
            observer.time_s >= hold.time_s,
            "observer survival {:.2}s must be at least the hold arm's {:.2}s",
            observer.time_s,
            hold.time_s
        );
        assert!(observer.observer_coasts > 0, "past-budget misses must be coasted");
        assert!(observer.observer_reacquisitions >= 1, "the burst end must re-acquire");
        assert_eq!(hold.observer_coasts, 0, "the legacy arm never coasts");
        // Both arms bridge the first misses identically.
        assert!(hold.measurement_holds >= 4 && observer.measurement_holds >= 4);
    }

    #[test]
    fn error_fit_recovers_perception_moments() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 150.0);
        let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_error_fit(true);
        let r = HilSimulator::new(track, config).run();
        let profile = r.error_profile().expect("error_fit must produce a profile");
        // The perception stage is noisy but roughly unbiased on the
        // benign straight, and it rarely misses.
        assert!(profile.noise_std > 0.0 && profile.noise_std < 0.5, "σ = {}", profile.noise_std);
        assert!(profile.bias.abs() < 0.2, "bias = {}", profile.bias);
        assert!(profile.miss_rate < 0.1, "miss rate = {}", profile.miss_rate);
        // Deterministic: the same run fits the same profile.
        let again = HilSimulator::new(
            Track::for_situation(&TABLE3_SITUATIONS[0], 150.0),
            HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_error_fit(true),
        )
        .run();
        assert_eq!(again.error_fit, r.error_fit);
        assert_eq!(again.error_profile(), r.error_profile());
    }

    #[test]
    fn metrics_capture_stage_timings_and_counters() {
        use lkas_scene::track::Sector;
        // Straight → right turn so knob reconfigurations actually fire.
        let s1 = Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0);
        let s2 = Sector::for_situation(&TABLE3_SITUATIONS[7], 200.0);
        let track = Track::new(vec![s1, s2]);
        let metrics = Arc::new(Metrics::new());
        let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_metrics(Arc::clone(&metrics));
        let result = HilSimulator::new(track, config).run();
        assert!(!result.crashed);

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("cycles"), Some(result.samples));
        // Every pipeline stage ran once per cycle.
        for stage in ["render", "sensor", "isp", "classifier", "perception"] {
            let timing = snap.stage(stage).unwrap();
            assert_eq!(timing.count, result.samples, "{stage}");
            assert!(timing.total_ms > 0.0, "{stage} must accumulate time");
            assert!(timing.mean_us > 0.0 && timing.max_us >= timing.mean_us, "{stage}");
        }
        // Control is timed at least once per cycle (steps) plus design
        // fetches on reconfiguration.
        assert!(snap.stage("control").unwrap().count >= result.samples);
        // Actuation is timed once per 5 ms physics step, so it records
        // strictly more often than the control samples.
        let actuation = snap.stage("actuation").unwrap();
        assert!(actuation.count > result.samples, "physics steps outnumber control samples");
        // Percentiles ride along in the v3 snapshot, ordered.
        let render = snap.stage("render").unwrap();
        let (p50, p90, p99) =
            (render.p50_us.unwrap(), render.p90_us.unwrap(), render.p99_us.unwrap());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= render.max_us);
        // The sector transition must show up in the event counters.
        assert!(snap.counter("situation_switches").unwrap() >= 1);
        assert!(
            snap.counter("isp_reconfigurations").unwrap()
                + snap.counter("perception_reconfigurations").unwrap()
                + snap.counter("control_reconfigurations").unwrap()
                >= 1,
            "the sector boundary must reconfigure at least one knob group"
        );
        // Every design lookup goes through the memoizing cache.
        assert!(
            snap.counter("controller_cache_hits").unwrap()
                + snap.counter("controller_cache_misses").unwrap()
                >= 1
        );
    }

    #[test]
    fn stream_is_identical_across_tile_threads_without_metrics() {
        use lkas_runtime::TelemetryBus;
        // Wall-clock stage samples only ride along when a registry is
        // attached, so a metrics-free stream is a pure function of the
        // (thread-count-invariant) trajectory.
        let run = |threads: usize| {
            let track = Track::for_situation(&TABLE3_SITUATIONS[7], 250.0);
            let bus = Arc::new(TelemetryBus::new(1 << 14));
            let sub = bus.subscribe();
            let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_tile_threads(threads)
                .with_stream(bus);
            HilSimulator::new(track, config).run();
            sub.drain()
        };
        let serial = run(1);
        let tiled = run(4);
        assert!(!serial.is_empty());
        assert!(serial.iter().all(|d| d.samples.is_empty()), "no latency samples without metrics");
        assert!(serial.iter().any(|d| !d.labels.is_empty()));
        assert!(serial.iter().any(|d| !d.counters.is_empty()));
        assert_eq!(serial, tiled, "deltas must not depend on the tile-worker count");
    }

    #[test]
    fn external_stream_does_not_perturb_the_tuned_trajectory() {
        use lkas_runtime::TelemetryBus;
        let base = || {
            HilConfig::new(Case::Case4, SituationSource::Oracle)
                .with_camera(test_camera())
                .with_seed(42)
                .with_sensor(SensorConfig { read_noise: 0.05, shot_noise: 0.06, gain: 1.0 })
                .with_initial_estimate(TABLE3_SITUATIONS[6])
                .with_tuner(TunerConfig::new().with_seed(42))
        };
        let track = || Track::for_situation(&TABLE3_SITUATIONS[6], 180.0);
        let bare = HilSimulator::new(track(), base()).run();
        // A deliberately tiny ring with a subscriber that never drains:
        // the lazy subscriber overflows and loses old frames, but the
        // tuner reads each sealed cycle directly and the trajectory is
        // untouched — backpressure never reaches the control loop.
        let bus = Arc::new(TelemetryBus::new(2));
        let lazy = bus.subscribe();
        let external = HilSimulator::new(track(), base().with_stream(Arc::clone(&bus))).run();
        assert!(lazy.dropped() > 0, "the tiny ring must overflow the lazy subscriber");
        assert_eq!(bus.dropped(), lazy.dropped());
        assert_eq!(bare.overall_mae(), external.overall_mae());
        assert_eq!(bare.tuner_decisions, external.tuner_decisions);
        assert_eq!(bare.knob_store.unwrap(), external.knob_store.unwrap());
    }

    #[test]
    fn flight_recorder_dumps_on_safe_mode_entry() {
        use lkas_runtime::{FlightDump, FlightRecorder};
        use lkas_scene::track::Sector;
        let path =
            std::env::temp_dir().join(format!("lkas-hil-flight-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // The blindfold scenario from the degradation acceptance test:
        // a long frame-drop burst trips safe mode mid-straight.
        let plan = Arc::new(FaultPlan::named("blindfold", 7).drop_burst(150, 500));
        let track = Track::new(vec![
            Sector::for_situation(&TABLE3_SITUATIONS[0], 300.0),
            Sector::for_situation(&TABLE3_SITUATIONS[7], 140.0),
            Sector::for_situation(&TABLE3_SITUATIONS[0], 80.0),
        ]);
        let recorder = Arc::new(FlightRecorder::new(64).with_auto_dump(path.clone()));
        let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(7)
            .with_fault_plan(plan)
            .with_degradation(DegradationConfig::default())
            .with_flight_recorder(Arc::clone(&recorder));
        let r = HilSimulator::new(track, config).run();
        assert!(r.degraded_entries >= 1, "the burst must trip safe mode");
        assert!(recorder.dumps() >= 1, "safe-mode entry must auto-dump the ring");
        let dump: FlightDump =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, "degraded_enter");
        assert!(dump.deltas.iter().any(|d| d.labels.iter().any(|l| l == "degraded_enter")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_sink_records_spans_and_events() {
        use lkas_runtime::TraceRecorder;
        use lkas_scene::track::Sector;
        let s1 = Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0);
        let s2 = Sector::for_situation(&TABLE3_SITUATIONS[7], 200.0);
        let track = Track::new(vec![s1, s2]);
        let recorder = TraceRecorder::new();
        let config = HilConfig::new(Case::Case2, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_trace_sink(recorder.sink(1, "trace-test"));
        let result = HilSimulator::new(track, config).run();
        assert!(!result.crashed);

        let json = recorder.chrome_trace_json();
        // Stage spans of every pipeline stage made it into the export.
        for stage in ["render", "sensor", "isp", "classifier", "perception", "control", "actuation"]
        {
            assert!(json.contains(&format!("\"name\":\"{stage}\"")), "missing {stage} span");
        }
        // The sector boundary shows up as a situation switch plus at
        // least one knob reconfiguration instant.
        assert!(json.contains("\"name\":\"situation_switch\""));
        assert!(json.contains("reconfig:"), "knob reconfiguration must be traced");
        assert!(json.contains("\"name\":\"run_start\""));
        // Deterministic replay: the same run renders identical bytes.
        let recorder2 = TraceRecorder::new();
        let s1 = Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0);
        let s2 = Sector::for_situation(&TABLE3_SITUATIONS[7], 200.0);
        let config = HilConfig::new(Case::Case2, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(42)
            .with_trace_sink(recorder2.sink(1, "trace-test"));
        HilSimulator::new(Track::new(vec![s1, s2]), config).run();
        assert_eq!(json, recorder2.chrome_trace_json());
    }
}
