//! Per-layer spans from a schedule replay.
//!
//! The traced run records each HiL run's per-cycle schedule with
//! `HilConfig::with_trace` (ISP configuration, ROI, vehicle speed,
//! steering, measurements) and replays it cycle by cycle from outside
//! the program, timing every public layer call on its own: render,
//! capture, ISP (and each ISP stage on a copy), classification,
//! perception (and its three steps on copies), controller design and
//! step, each 5 ms vehicle step, the degradation policy and the
//! telemetry publish. No timer is added inside the program.
//!
//! The replay drives its own `VehicleSim` with the recorded steering on
//! the loop's actuation schedule, so it renders the same poses and
//! feeds every layer the same inputs as the recorded run. It checks
//! that bit for bit: the ground-truth lane offset, the measurement the
//! controller saw and the steering it issued must equal the recording
//! at every cycle, or the replay is reported as diverged.

use crate::stats::{percentile, supported_tail};
use lkas::degrade::{CoastInput, DegradationPolicy};
use lkas::hil::{HilConfig, HilResult, SituationSource, ORACLE_PREVIEW_M};
use lkas::identify::{BundleBatch, SituationEstimate};
use lkas_control::controller::{Controller, Measurement};
use lkas_control::design::{design_controller, ControllerConfig};
use lkas_control::model::kmph_to_mps;
use lkas_faults::{apply_bayer_fault, derive_cycle_seed, ActuationFault, Misprediction};
use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{demosaic_into_with, IspConfig, IspPipeline, IspStage};
use lkas_imaging::sensor::Sensor;
use lkas_imaging::Scratch;
use lkas_nn::classifiers::confuse_situation;
use lkas_nn::features::extract;
use lkas_perception::bev::{BevImage, BirdsEye, RectifyTaps};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_perception::sliding::{sliding_window_search_with, SlidingScratch};
use lkas_perception::threshold::{binarize_into_with, BinaryMask};
use lkas_platform::profiles::{
    isp_runtime_ms, CLASSIFIER_RUNTIME_MS, CONTROL_RUNTIME_MS, PERCEPTION_RUNTIME_MS,
};
use lkas_runtime::{CycleDelta, FlightRecorder, TelemetryBus, DEFAULT_FLIGHT_CAPACITY};
use lkas_scene::render::SceneRenderer;
use lkas_scene::track::Track;
use lkas_vehicle::{VehicleSim, VehicleState, PHYSICS_STEP_S};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Commanded speeds of the knob space (km/h): Table III and the safe
/// fallback use only these two.
const SPEEDS_KMPH: [f64; 2] = [50.0, 30.0];

/// Raw span samples (ns) per layer, plus the counts the layer metrics
/// divide by.
#[derive(Debug, Default)]
pub struct Spans {
    /// Span name → samples (ns).
    pub ns: BTreeMap<&'static str, Vec<f64>>,
    /// `IspPipeline::process_into` samples (ns) per ISP configuration.
    pub isp_by_config: BTreeMap<&'static str, Vec<f64>>,
    /// Perception calls that found no lane.
    pub perception_misses: u64,
}

impl Spans {
    fn push(&mut self, name: &'static str, ns: f64) {
        self.ns.entry(name).or_default().push(ns);
    }

    /// The samples of one span (empty if the layer never ran).
    pub fn get(&self, name: &str) -> &[f64] {
        self.ns.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds another replay's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (name, samples) in other.ns {
            self.ns.entry(name).or_default().extend(samples);
        }
        for (name, samples) in other.isp_by_config {
            self.isp_by_config.entry(name).or_default().extend(samples);
        }
        self.perception_misses += other.perception_misses;
    }
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = work();
    (out, started.elapsed().as_nanos() as f64)
}

fn stage_span(stage: IspStage) -> &'static str {
    match stage {
        IspStage::Demosaic => "isp.DM",
        IspStage::Denoise => "isp.DN",
        IspStage::ColorMap => "isp.CM",
        IspStage::GamutMap => "isp.GM",
        IspStage::ToneMap => "isp.TM",
    }
}

/// The commanded speed that carries the recorded speed `vx0` to `vx1`
/// over `steps` physics steps of the vehicle's first-order speed lag.
fn target_speed(vx0: f64, vx1: f64, steps: usize) -> Option<f64> {
    SPEEDS_KMPH.into_iter().find(|&kmph| {
        let target = kmph_to_mps(kmph);
        let mut v = vx0;
        for _ in 0..steps {
            v += (target - v) * (PHYSICS_STEP_S / 1.0);
        }
        v.to_bits() == vx1.to_bits()
    })
}

/// Per-layer state of one replay that the cycle body borrows.
struct Layers<'a> {
    config: &'a HilConfig,
    renderer: SceneRenderer,
    sensor: Sensor,
    isp: IspPipeline,
    scratch: Scratch,
    stage_scratch: Scratch,
    perception_scratch: PerceptionScratch,
    scene: RgbImage,
    raw: RawImage,
    rgb: RgbImage,
    stage_img: RgbImage,
    bev: BevImage,
    mask: BinaryMask,
    taps: RectifyTaps,
    sliding: SlidingScratch,
    perceptions: Vec<(Roi, Perception, BirdsEye)>,
}

impl Layers<'_> {
    /// Perception pipeline and rectifier for a ROI, built on first use
    /// (the loop rebuilds its pipeline on every ROI switch; that
    /// construction is not a layer span).
    fn perception(&mut self, roi: Roi) -> usize {
        if let Some(i) = self.perceptions.iter().position(|(r, _, _)| *r == roi) {
            return i;
        }
        let camera = self.config.camera.clone();
        let backend = self.config.kernel_backend;
        self.perceptions.push((
            roi,
            Perception::new(PerceptionConfig::new(roi), camera.clone()).with_backend(backend),
            BirdsEye::new(camera, roi).expect("built-in ROIs are rectifiable"),
        ));
        self.perceptions.len() - 1
    }
}

/// Replays one recorded run and returns its spans plus any divergence
/// from the recording. `telemetry` publishes one `CycleDelta` per cycle
/// to a bus with a subscriber and a flight recorder, as the recorded
/// run did.
pub fn replay(
    label: &str,
    track: &Track,
    config: &HilConfig,
    telemetry: bool,
    result: &HilResult,
) -> (Spans, Vec<String>) {
    let trace = &result.trace;
    let n = trace.len();
    let mut spans = Spans::default();
    let mut problems = Vec::new();
    if n == 0 || n as u64 != result.samples {
        problems
            .push(format!("{label}: recorded {n} schedule entries for {} cycles", result.samples));
        return (spans, problems);
    }
    let Some(v0) = SPEEDS_KMPH.into_iter().find(|&v| kmph_to_mps(v) == trace[0].vx) else {
        problems.push(format!("{label}: initial speed {} m/s is not a knob speed", trace[0].vx));
        return (spans, problems);
    };
    let backend = config.kernel_backend;
    let camera = &config.camera;
    let scheme = config.scheme_override.clone().unwrap_or_else(|| config.case.invocation_scheme());
    let plan = config.fault_plan.as_deref();
    let plan_seed = plan.map_or(0, |p| p.seed);
    let mut policy = config.degradation.map(DegradationPolicy::new);
    let mut estimate = match config.initial_estimate {
        Some(s) => SituationEstimate::with_initial(s),
        None => SituationEstimate::new(),
    };
    let mut batch = match &config.source {
        SituationSource::Trained(bundle) => Some(BundleBatch::new(bundle)),
        SituationSource::Oracle => None,
    };
    let mut layers = Layers {
        config,
        renderer: SceneRenderer::new(camera.clone()),
        sensor: Sensor::new(config.sensor.clone(), config.seed),
        isp: IspPipeline::new(IspConfig::S0).with_backend(backend),
        scratch: Scratch::with_threads(config.tile_threads),
        stage_scratch: Scratch::new(),
        perception_scratch: PerceptionScratch::new(),
        scene: RgbImage::new(1, 1),
        raw: RawImage::new(2, 2),
        rgb: RgbImage::new(1, 1),
        stage_img: RgbImage::new(1, 1),
        bev: BevImage::empty(),
        mask: BinaryMask::empty(),
        taps: RectifyTaps::empty(),
        sliding: SlidingScratch::new(),
        perceptions: Vec::new(),
    };
    let bus = telemetry.then(TelemetryBus::default);
    let subscription = bus.as_ref().map(TelemetryBus::subscribe);
    let flight = telemetry.then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));

    let mut vehicle = VehicleSim::new(track.clone(), VehicleState::centered(v0));
    let mut designs: Vec<(ControllerConfig, Controller)> = Vec::new();
    let mut controller: Option<(ControllerConfig, Controller)> = None;
    let mut pending: Vec<(f64, f64)> = Vec::new();
    let mut active_cmd = 0.0f64;
    let (mut t_ms, mut next_sample_ms) = (0.0f64, 0.0f64);
    let mut h_ms = trace.get(1).map_or(25.0, |s| s.t_ms - trace[0].t_ms);
    let mut cycle_ns: Option<f64> = None;
    let mut misidentified = 0u64;
    let mut diverged = false;
    let mut k = 0usize;

    while !vehicle.finished() && vehicle.time_s() < config.max_time_s {
        if t_ms + 1e-9 >= next_sample_ms {
            if let Some(ns) = cycle_ns.take() {
                spans.push("cycle", ns);
            }
            if k == n {
                problems.push(format!("{label}: the replay reached a cycle the run never took"));
                break;
            }
            let s = &trace[k];
            let cycle = k as u64;
            let mut sum = 0.0;
            let mut stage_samples: Vec<(&'static str, f64)> = Vec::new();
            // Records a span that counts toward the cycle; `stage` names
            // the loop's telemetry stage it belongs to, if any.
            let mut add =
                |spans: &mut Spans, name: &'static str, stage: Option<&'static str>, ns| {
                    spans.push(name, ns);
                    stage_samples.extend(stage.map(|st| (st, ns)));
                    sum += ns;
                };
            if !diverged && (s.t_ms != t_ms || s.y_l_true.to_bits() != vehicle.true_y_l().to_bits())
            {
                diverged = true;
                problems.push(format!("{label}: vehicle pose diverged at cycle {k}"));
            }
            let faults = plan.map(|p| p.faults_at(cycle)).unwrap_or_default();
            if plan.is_some() {
                vehicle.set_actuator_fault(faults.actuation.map(ActuationFault::to_actuator));
            }
            let degraded = policy.as_ref().is_some_and(DegradationPolicy::is_degraded);
            let invoked =
                scheme.classifiers_for_frame_faulted(cycle, h_ms, faults.drop_frame, degraded);
            // Sampling period of this cycle: the gap to the next sample
            // (the last cycle keeps the previous period).
            if k + 1 < n {
                h_ms = trace[k + 1].t_ms - s.t_ms;
            }

            // ---- frame path ------------------------------------------
            layers.isp.set_config(s.isp);
            let have_frame = !faults.drop_frame && {
                let (ps, pd, ppsi) = vehicle.camera_pose();
                let Layers { renderer, scene, .. } = &mut layers;
                let (rendered, ns) =
                    timed(|| renderer.render_into(vehicle.track(), ps, pd, ppsi, scene));
                add(&mut spans, "render", Some("render"), ns);
                rendered.is_ok()
            };
            if have_frame {
                let Layers {
                    sensor, scene, raw, isp, scratch, rgb, stage_scratch, stage_img, ..
                } = &mut layers;
                let (_, ns) = timed(|| sensor.capture_into(scene, 1.0, raw));
                add(&mut spans, "sensor", Some("sensor"), ns);
                if let Some(kind) = faults.bayer {
                    apply_bayer_fault(kind, raw, plan_seed, cycle);
                }
                let (_, ns) = timed(|| isp.process_into(raw, scratch, rgb));
                add(&mut spans, "isp", Some("isp"), ns);
                spans.isp_by_config.entry(s.isp.name()).or_default().push(ns);
                // Each stage on its own, on a copy: not part of the cycle.
                let (_, ns) = timed(|| demosaic_into_with(raw, stage_scratch, stage_img, backend));
                spans.push("isp.DM", ns);
                for &stage in s.isp.stages().iter().filter(|&&st| st != IspStage::Demosaic) {
                    let (_, ns) = timed(|| stage.apply_with(backend, stage_scratch, stage_img));
                    spans.push(stage_span(stage), ns);
                }
            }

            // ---- situation identification ------------------------------
            let ((), ns) = timed(|| match &config.source {
                SituationSource::Oracle => {
                    let truth = vehicle.preview_situation(ORACLE_PREVIEW_M);
                    estimate.update_from_truth(&truth, invoked);
                }
                SituationSource::Trained(bundle) => {
                    if have_frame {
                        let batch = batch.as_mut().expect("batch built for trained source");
                        estimate.update_from_frame_with(
                            bundle,
                            batch,
                            &layers.rgb,
                            camera,
                            invoked,
                        );
                    }
                }
            });
            add(&mut spans, "classify", Some("classifier"), ns);
            if matches!(config.source, SituationSource::Trained(_))
                && have_frame
                && invoked.count() > 0
            {
                let (features, ns) = timed(|| extract(&layers.rgb, camera));
                black_box(features);
                spans.push("features", ns);
            }
            if let (Some(mp), false) = (faults.mispredict, faults.drop_frame) {
                estimate.force(match mp {
                    Misprediction::Force(situation) => situation,
                    Misprediction::Confuse => confuse_situation(
                        &vehicle.preview_situation(ORACLE_PREVIEW_M),
                        derive_cycle_seed(plan_seed, cycle),
                    ),
                });
            }
            if estimate.current() != vehicle.preview_situation(ORACLE_PREVIEW_M) {
                misidentified += 1;
            }

            // ---- knobs: speed and controller -----------------------------
            if k + 1 < n {
                let steps = (h_ms / (PHYSICS_STEP_S * 1000.0)).round() as usize;
                match target_speed(s.vx, trace[k + 1].vx, steps) {
                    Some(kmph) => vehicle.set_target_speed_kmph(kmph),
                    None if !diverged => {
                        diverged = true;
                        problems.push(format!("{label}: no knob speed explains cycle {k}"));
                    }
                    None => {}
                }
            }
            let design_speed = if vehicle.state().vx > kmph_to_mps(40.0) { 50.0 } else { 30.0 };
            // Cases 1–4 design for τ = h: both are the modeled delay
            // ceiled to the 5 ms step.
            let cfg = ControllerConfig { speed_kmph: design_speed, h_ms, tau_ms: h_ms };
            if controller.as_ref().map(|(c, _)| *c) != Some(cfg) {
                let designed = match designs.iter().find(|(c, _)| *c == cfg) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let (designed, ns) = timed(|| design_controller(&cfg));
                        add(&mut spans, "control.design", Some("control"), ns);
                        let Ok(designed) = designed else {
                            problems.push(format!("{label}: design failed for {cfg:?}"));
                            break;
                        };
                        designs.push((cfg, designed.clone()));
                        designed
                    }
                };
                let mut next = designed;
                if let Some((_, previous)) = &controller {
                    next.adopt_state(previous);
                }
                controller = Some((cfg, next));
            }

            // ---- perception and degradation ----------------------------
            let raw_y_l = if have_frame {
                let i = layers.perception(s.roi);
                let Layers {
                    perceptions, rgb, perception_scratch, bev, mask, taps, sliding, ..
                } = &mut layers;
                let (perception, birds_eye) = (&perceptions[i].1, &perceptions[i].2);
                let (out, ns) = timed(|| perception.process_into(rgb, perception_scratch));
                add(&mut spans, "perception", Some("perception"), ns);
                // Its three steps on their own, on copies.
                let (_, ns) = timed(|| birds_eye.rectify_into_with(rgb, bev, backend, taps));
                spans.push("rectify", ns);
                let (_, ns) = timed(|| binarize_into_with(bev, mask, backend));
                spans.push("binarize", ns);
                let (fits, ns) = timed(|| sliding_window_search_with(bev, mask, sliding));
                black_box(fits);
                spans.push("sliding", ns);
                match out {
                    Ok(out) => Some(out.y_l),
                    Err(_) => {
                        spans.perception_misses += 1;
                        None
                    }
                }
            } else {
                None
            };
            let y_l = match policy.as_mut() {
                Some(p) => {
                    let input = CoastInput {
                        steering: active_cmd,
                        yaw_rate: vehicle.state().r,
                        speed_kmph: design_speed,
                        h_ms,
                    };
                    let (obs, ns) = timed(|| p.observe_with(raw_y_l, &input));
                    add(&mut spans, "degrade", None, ns);
                    obs.y_l
                }
                None => raw_y_l,
            };
            if !diverged && y_l.map(f64::to_bits) != s.y_l_measured.map(f64::to_bits) {
                diverged = true;
                problems.push(format!("{label}: measurement diverged at cycle {k}"));
            }

            // ---- control ------------------------------------------------
            let (_, ctrl) = controller.as_mut().expect("controller designed this cycle");
            let measurement = Measurement { y_l, yaw_rate: vehicle.state().r };
            let (u, ns) = timed(|| ctrl.step(&measurement));
            add(&mut spans, "control.step", Some("control"), ns);
            if !diverged && k + 1 < n && u.to_bits() != s.steering.to_bits() {
                diverged = true;
                problems.push(format!("{label}: steering diverged at cycle {k}"));
            }

            // ---- telemetry ------------------------------------------------
            if let (Some(bus), Some(flight)) = (&bus, &flight) {
                let mut delta = CycleDelta::new(cycle);
                for (stage, ns) in stage_samples {
                    delta.samples.push((stage.to_string(), vec![ns as u64]));
                }
                delta.counters.push(("cycles".to_string(), 1));
                if faults.drop_frame {
                    delta.counters.push(("frame_drops".to_string(), 1));
                }
                delta.y_l_measured = raw_y_l;
                delta.y_l_true = Some(s.y_l_true);
                delta.labels = faults.trace_labels().into_iter().map(String::from).collect();
                let (_, ns) = timed(|| bus.publish(&delta));
                spans.push("publish", ns);
                sum += ns;
                let (_, ns) = timed(|| flight.ingest(&delta));
                spans.push("ingest", ns);
                sum += ns;
            }

            // Recorded steering, on the loop's actuation schedule (τ = h).
            pending.push((t_ms + h_ms + faults.extra_delay_ms, s.steering));
            next_sample_ms = t_ms + h_ms;
            cycle_ns = Some(sum);
            k += 1;
        }
        while let Some(&(act_t, cmd)) = pending.first() {
            if act_t <= t_ms + 1e-9 {
                active_cmd = cmd;
                pending.remove(0);
            } else {
                break;
            }
        }
        let (_, ns) = timed(|| vehicle.step(active_cmd));
        spans.push("vehicle.step", ns);
        if let Some(sum) = cycle_ns.as_mut() {
            *sum += ns;
        }
        t_ms += PHYSICS_STEP_S * 1000.0;
        if vehicle.departed() {
            break;
        }
    }
    if let Some(ns) = cycle_ns {
        spans.push("cycle", ns);
    }
    if k != n {
        problems.push(format!("{label}: replayed {k} of {n} recorded cycles"));
    }
    if misidentified != result.misidentifications {
        problems.push(format!(
            "{label}: replay misidentified {misidentified} cycles, the run {}",
            result.misidentifications
        ));
    }
    if let Some(sub) = subscription {
        if sub.drain().len() as u64 + sub.dropped() != k as u64 {
            problems.push(format!("{label}: the replay subscriber missed cycles"));
        }
    }
    (spans, problems)
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Replay spans over every replayed run.
    pub spans: &'a Spans,
    /// Executor workers of the recording pass.
    pub workers: usize,
    /// Host wall time of the recording pass (s).
    pub pass_wall_s: f64,
    /// Host wall time of every run of the recording pass (s).
    pub run_spans_s: Vec<f64>,
    /// Results of every run of the recording pass.
    pub results: Vec<&'a HilResult>,
    /// Untraced host time (s) of the replayed runs.
    pub replayed_wall_s: f64,
    /// Cycles of the replayed runs.
    pub replayed_cycles: u64,
}

/// The per-layer metrics, by name, plus report lines (the tail
/// percentile actually used where p99 lacks support, and the Table II
/// comparison).
pub fn layer_metrics(input: &LayerInputs<'_>) -> (BTreeMap<String, f64>, Vec<String>) {
    let s = input.spans;
    let mut m = BTreeMap::new();
    let mut lines = Vec::new();
    let cycle_total: f64 = s.get("cycle").iter().sum();
    let share = |name: &str| {
        if cycle_total > 0.0 {
            s.get(name).iter().sum::<f64>() / cycle_total
        } else {
            0.0
        }
    };
    let p50 = |name: &str| {
        let v = s.get(name);
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 50.0)
        }
    };
    let mut tail = |metric: &str, name: &str, lines: &mut Vec<String>| {
        let v = s.get(name);
        let value = if v.is_empty() {
            0.0
        } else {
            let (label, value) = supported_tail(v);
            if label != "p99" {
                lines.push(format!("{metric}: {} samples support only {label}", v.len()));
            }
            value
        };
        m.insert(metric.to_string(), value / 1e3);
    };
    tail("scene.render_p99_us", "render", &mut lines);
    tail("imaging.sensor_p99_us", "sensor", &mut lines);
    tail("imaging.isp_p99_us", "isp", &mut lines);
    tail("perception.p99_us", "perception", &mut lines);
    tail("nn.classify_p99_us", "classify", &mut lines);
    tail("hil.cycle_p99_us", "cycle", &mut lines);
    let us = [
        ("scene.render_p50_us", "render"),
        ("imaging.sensor_p50_us", "sensor"),
        ("imaging.isp_p50_us", "isp"),
        ("imaging.isp.DM_p50_us", "isp.DM"),
        ("imaging.isp.DN_p50_us", "isp.DN"),
        ("imaging.isp.CM_p50_us", "isp.CM"),
        ("imaging.isp.GM_p50_us", "isp.GM"),
        ("imaging.isp.TM_p50_us", "isp.TM"),
        ("perception.p50_us", "perception"),
        ("perception.rectify_p50_us", "rectify"),
        ("perception.binarize_p50_us", "binarize"),
        ("perception.sliding_p50_us", "sliding"),
        ("nn.classify_p50_us", "classify"),
        ("nn.features_p50_us", "features"),
        ("control.step_p50_us", "control.step"),
        ("vehicle.step_p50_us", "vehicle.step"),
        ("core.degrade_p50_us", "degrade"),
        ("runtime.publish_p50_us", "publish"),
        ("hil.cycle_p50_us", "cycle"),
    ];
    for (metric, name) in us {
        m.insert(metric.to_string(), p50(name) / 1e3);
    }
    m.insert("control.design_p50_ms".into(), p50("control.design") / 1e6);
    m.insert("scene.render_share".into(), share("render"));
    m.insert("imaging.sensor_share".into(), share("sensor"));
    m.insert("imaging.isp_share".into(), share("isp"));
    m.insert("perception.share".into(), share("perception"));
    m.insert("nn.share".into(), share("classify"));
    let perception_calls = s.get("perception").len() as f64;
    m.insert(
        "perception.fail_frac".into(),
        if perception_calls > 0.0 { s.perception_misses as f64 / perception_calls } else { 0.0 },
    );
    m.insert("control.designs".into(), s.get("control.design").len() as f64);
    m.insert("vehicle.steps".into(), s.get("vehicle.step").len() as f64);

    let cycles: u64 = input.results.iter().map(|r| r.samples).sum();
    let frames: u64 =
        input.results.iter().map(|r| r.samples - r.frame_drops - r.render_errors).sum();
    let misid: u64 = input.results.iter().map(|r| r.misidentifications).sum();
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    m.insert("nn.misid_frac".into(), ratio(misid, cycles));
    m.insert("hil.cycles".into(), cycles as f64);
    m.insert("hil.frame_frac".into(), ratio(frames, cycles));
    m.insert(
        "hil.reconfigs".into(),
        input.results.iter().map(|r| r.reconfigurations).sum::<u64>() as f64,
    );
    let run_ms: Vec<f64> = input.run_spans_s.iter().map(|s| s * 1e3).collect();
    m.insert(
        "core.evaluate_p50_ms".into(),
        if run_ms.is_empty() { 0.0 } else { percentile(&run_ms, 50.0) },
    );
    m.insert(
        "runtime.worker_util".into(),
        input.run_spans_s.iter().sum::<f64>() / (input.workers as f64 * input.pass_wall_s),
    );
    let replay_cycles = s.get("cycle").len() as f64;
    let untraced_us = input.replayed_wall_s * 1e6 / input.replayed_cycles.max(1) as f64;
    let layer_sum_us = cycle_total / 1e3 / replay_cycles.max(1.0);
    m.insert("hil.other_us".into(), untraced_us - layer_sum_us);
    lines.push(format!(
        "span check: replay layer sum {layer_sum_us:.1} us/cycle vs untraced {untraced_us:.1} \
         us/cycle ({:.3}x, at most 1.1x expected)",
        layer_sum_us / untraced_us
    ));
    lines.extend(table2_lines(s));
    (m, lines)
}

/// Table II beside the host: the platform model's runtime of each task
/// next to the host p50 of the same layer, with the host/model ratio.
fn table2_lines(s: &Spans) -> Vec<String> {
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for cfg in IspConfig::ALL {
        if let Some(v) = s.isp_by_config.get(cfg.name()) {
            rows.push((format!("ISP {}", cfg.name()), percentile(v, 50.0), isp_runtime_ms(cfg)));
        }
    }
    if !s.get("perception").is_empty() {
        rows.push((
            "perception".into(),
            percentile(s.get("perception"), 50.0),
            PERCEPTION_RUNTIME_MS,
        ));
    }
    if !s.get("features").is_empty() {
        // The trained trio runs every frame in Case 4: three 5.5 ms
        // ResNet-18 invocations in the model.
        rows.push((
            "classifiers (3)".into(),
            percentile(s.get("classify"), 50.0),
            3.0 * CLASSIFIER_RUNTIME_MS,
        ));
    }
    if !s.get("control.step").is_empty() {
        rows.push(("control".into(), percentile(s.get("control.step"), 50.0), CONTROL_RUNTIME_MS));
    }
    rows.into_iter()
        .map(|(task, host_ns, model_ms)| {
            format!(
                "Table II {task:<16} host p50 {:>10.1} us | model {:>8.4} ms | host/model {:.3}",
                host_ns / 1e3,
                model_ms,
                host_ns / 1e6 / model_ms
            )
        })
        .collect()
}
