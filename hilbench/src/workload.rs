//! The four workloads: what each one runs, its set-up, one measured
//! pass, and the checks on the pass's outputs.
//!
//! Every workload is a batch simulation with a closed loop: each HiL
//! run advances as fast as the host allows, with no arrival schedule.
//! A pass is a fixed list of runs derived from the seed, so two passes
//! of one seed do identical work and must produce identical outcomes.

use lkas::cases::Case;
use lkas::characterize::{CandidateOutcome, CharacterizeConfig, Characterizer, KnobStore};
use lkas::degrade::{CoastPolicy, DegradationConfig};
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas::identify::{BundleBatch, ClassifierBundle};
use lkas::knobs::{KnobTable, KnobTuning};
use lkas::tuner::TunerConfig;
use lkas_faults::FaultPlan;
use lkas_imaging::sensor::SensorConfig;
use lkas_nn::classifiers::{
    ClassifierSpec, LaneClassifier, RoadClassifier, SceneClassifier, TrainReport,
};
use lkas_perception::pipeline::{Perception, PerceptionConfig};
use lkas_perception::roi::Roi;
use lkas_runtime::{Counter, Executor, FlightRecorder, Metrics, TelemetryBus};
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::{SituationFeatures, TABLE3_SITUATIONS};
use lkas_scene::track::{Sector, Track};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Simulated-time cap of every run in `--smoke` mode (s).
pub const SMOKE_MAX_TIME_S: f64 = 3.0;

/// Table III situations the `characterize` workload sweeps: day
/// straight, dark straight, right turn.
const CHARACTERIZE_SITUATIONS: [usize; 3] = [0, 6, 7];

/// Track length of one characterization candidate (m). Short on
/// purpose: the workload exists to weigh per-run construction, cold
/// controller designs and worker scheduling against the frame path.
const CHARACTERIZE_TRACK_M: f64 = 60.0;

/// Table III situations of the drifted-sensor tuner runs of
/// `fault-grid`.
const DRIFT_SITUATIONS: [usize; 2] = [0, 1];

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Case 4, oracle situations, on the Fig. 7 track.
    Fig8Oracle,
    /// Case 4 with the trained classifier trio, on the Fig. 7 track.
    Fig8Trained,
    /// A Table III characterization sweep: many short candidate runs.
    Characterize,
    /// Fault plans × degradation arms plus drifted-sensor tuner runs,
    /// every run with telemetry attached.
    FaultGrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig8Oracle, Workload::Fig8Trained, Workload::Characterize, Workload::FaultGrid];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Oracle => "fig8-oracle",
            Workload::Fig8Trained => "fig8-trained",
            Workload::Characterize => "characterize",
            Workload::FaultGrid => "fault-grid",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor workers a pass runs its HiL runs on (never more than
    /// the two cores the benchmark is sized for).
    pub fn workers(self) -> usize {
        match self {
            Workload::Fig8Oracle | Workload::Fig8Trained => 1,
            Workload::Characterize | Workload::FaultGrid => 2,
        }
    }
}

/// Knobs every workload takes from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Input seed: sensor noise, fault plans, classifier training,
    /// tuner exploration and characterization seeds all derive from it.
    pub seed: u64,
    /// Caps every run at [`SMOKE_MAX_TIME_S`] of simulated time and
    /// trains tiny classifiers, so a whole pass takes seconds.
    pub smoke: bool,
}

/// One HiL run of a pass.
#[derive(Debug, Clone)]
pub enum Job {
    /// A closed-loop run configured by the benchmark.
    Hil {
        /// Stable name of the run (pins and reports key on it).
        label: String,
        /// Track to drive.
        track: Track,
        /// Full run configuration (without telemetry taps).
        config: Box<HilConfig>,
        /// Attach a fresh `Metrics` registry, a `TelemetryBus` with one
        /// subscriber and a `FlightRecorder` to the run.
        telemetry: bool,
    },
    /// One candidate of the characterization grid, evaluated through
    /// `Characterizer::evaluate`.
    Candidate {
        /// Stable name of the run.
        label: String,
        /// Index into the workload's situation list.
        situation: usize,
        /// The candidate tuning.
        tuning: KnobTuning,
    },
}

impl Job {
    /// The run's stable name.
    pub fn label(&self) -> &str {
        match self {
            Job::Hil { label, .. } | Job::Candidate { label, .. } => label,
        }
    }
}

/// Everything one pass needs — the product of the workload's set-up.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Seed and smoke mode.
    pub opts: Options,
    /// The runs of one pass, in order.
    pub jobs: Vec<Job>,
    /// The characterization engine (`characterize` only).
    pub characterizer: Option<Characterizer>,
    /// The swept situations (`characterize` only).
    pub situations: Vec<SituationFeatures>,
}

/// The pinned outcome of one HiL run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// The run's stable name.
    pub label: String,
    /// Control cycles taken.
    pub cycles: u64,
    /// `true` if the vehicle left the lane.
    pub crashed: bool,
    /// Overall MAE of `y_L` (m), rounded to 1e-9.
    pub mae: Option<f64>,
    /// Camera frames dropped by the fault plan.
    pub frame_drops: u64,
    /// Knob reconfigurations.
    pub reconfigurations: u64,
}

impl RunOutcome {
    fn of(label: &str, r: &HilResult) -> Self {
        RunOutcome {
            label: label.to_string(),
            cycles: r.samples,
            crashed: r.crashed,
            mae: r.overall_mae().map(|m| (m * 1e9).round() / 1e9),
            frame_drops: r.frame_drops,
            reconfigurations: r.reconfigurations,
        }
    }
}

/// One run of a pass, as executed.
pub struct JobRun {
    /// Outcome summary (zero cycles after a panic).
    pub outcome: RunOutcome,
    /// The full result, `None` if the run panicked.
    pub result: Option<HilResult>,
    /// Host wall time of the run (s).
    pub span_s: f64,
    /// Output checks that failed in this run.
    pub problems: Vec<String>,
}

/// One executed pass.
pub struct Pass {
    /// Host wall time of the whole pass (s).
    pub wall_s: f64,
    /// The runs, in job order.
    pub runs: Vec<JobRun>,
    /// `characterize`: the winning tuning per situation.
    pub winners: Vec<String>,
    /// Failed checks on the pass as a whole.
    pub problems: Vec<String>,
}

impl Pass {
    /// Control cycles over every run of the pass.
    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.outcome.cycles).sum()
    }

    /// Runs that panicked.
    pub fn failed(&self) -> u64 {
        self.runs.iter().filter(|r| r.result.is_none()).count() as u64
    }

    /// Every failed output check of the pass and its runs.
    pub fn all_problems(&self) -> Vec<String> {
        let runs = self.runs.iter().flat_map(|r| r.problems.iter());
        self.problems.iter().chain(runs).cloned().collect()
    }
}

/// The stable name of a characterization candidate (and of a winner):
/// Table III situation, ISP configuration, ROI, speed.
fn candidate_label(situation: usize, tuning: &KnobTuning) -> String {
    format!(
        "s{}|{}|{}|{:.0}",
        CHARACTERIZE_SITUATIONS[situation],
        tuning.isp.name(),
        tuning.roi.name(),
        tuning.speed_kmph
    )
}

/// The camera of every workload: the 256×128 half-resolution camera of
/// the characterization and the quick campaign.
pub fn camera() -> Camera {
    Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
}

/// The `fig8-*` track: the first six sectors of the Fig. 7 track
/// (straight, right turn, yellow straight, yellow left turn, dotted
/// straight, dotted left turn). Case 4 visits S2, S3, S4, S6, S7 and
/// S8 on it — every ISP configuration it visits on the full nine
/// sectors — in two thirds of the full track's cycles.
pub fn fig8_track() -> Track {
    Track::new(Track::fig7_track().sectors()[..6].to_vec())
}

/// The `fault-grid` scenario: the robustness campaign's straight →
/// right turn → straight (300 m, 140 m, 80 m) at half length, so that
/// a pass fits twice in the run.
fn fault_track() -> Track {
    Track::new(vec![
        Sector::for_situation(&TABLE3_SITUATIONS[0], 150.0),
        Sector::for_situation(&TABLE3_SITUATIONS[7], 70.0),
        Sector::for_situation(&TABLE3_SITUATIONS[0], 40.0),
    ])
}

/// The four fault plans of `fault-grid`. Window positions of the Bayer
/// storm and the random mix are fractions of a cycle horizon derived
/// from the track; the frame-drop burst blinds the loop for cycles
/// 75..200 (5 s), on the approach straight.
fn fault_plans(seed: u64, track: &Track) -> Vec<FaultPlan> {
    let horizon = ((track.total_length() / 8.33 / 0.025) as u64).max(100);
    let at = |frac: f64| (horizon as f64 * frac) as u64;
    vec![
        FaultPlan::named("nominal", seed),
        FaultPlan::named("frame-drop-burst", seed).drop_burst(75, 125),
        FaultPlan::named("bayer-storm", seed)
            .hot_pixels(at(0.15), 40, 0.03)
            .row_banding(at(0.45), 40, 3, 0.35)
            .exposure_glitch(at(0.70), 30, 2.5),
        FaultPlan::random("random-mix", seed, horizon, 8),
    ]
}

/// The drifted sensor of the tuner runs: noise far above the nominal
/// operating point the Table III knobs were chosen for.
fn drift_sensor() -> SensorConfig {
    SensorConfig { read_noise: 0.06, shot_noise: 0.08, gain: 1.0 }
}

/// Classifier training scale: the harness quick spec (300 samples per
/// class, 60 epochs) on the workload camera, or a token spec in smoke
/// mode.
fn classifier_spec(smoke: bool) -> ClassifierSpec {
    let (train_per_class, val_per_class, epochs) = if smoke { (12, 4, 3) } else { (300, 60, 60) };
    ClassifierSpec {
        train_per_class,
        val_per_class,
        epochs,
        camera: camera(),
        ..Default::default()
    }
}

/// Trains the road, lane and scene classifiers (seeded `seed`,
/// `seed + 1`, `seed + 2`) on two workers and returns the bundle with
/// the three training reports.
pub fn train_bundle(opts: Options) -> (ClassifierBundle, [TrainReport; 3]) {
    enum Trained {
        Road(RoadClassifier, TrainReport),
        Lane(LaneClassifier, TrainReport),
        Scene(SceneClassifier, TrainReport),
    }
    let spec = classifier_spec(opts.smoke);
    // Largest dataset first (scene has five classes), so the two
    // workers finish close together.
    let trained = Executor::new(2).run(vec![2u64, 1, 0], |i| {
        let seed = opts.seed.wrapping_add(i);
        match i {
            0 => {
                let (c, r) = RoadClassifier::train(&spec, seed);
                Trained::Road(c, r)
            }
            1 => {
                let (c, r) = LaneClassifier::train(&spec, seed);
                Trained::Lane(c, r)
            }
            _ => {
                let (c, r) = SceneClassifier::train(&spec, seed);
                Trained::Scene(c, r)
            }
        }
    });
    let (mut road, mut lane, mut scene) = (None, None, None);
    for t in trained {
        match t {
            Trained::Road(c, r) => road = Some((c, r)),
            Trained::Lane(c, r) => lane = Some((c, r)),
            Trained::Scene(c, r) => scene = Some((c, r)),
        }
    }
    let (road, road_r) = road.expect("road classifier trained");
    let (lane, lane_r) = lane.expect("lane classifier trained");
    let (scene, scene_r) = scene.expect("scene classifier trained");
    (ClassifierBundle { road, lane, scene }, [road_r, lane_r, scene_r])
}

/// The workload's repeatable set-up: builds every input of a pass and
/// constructs the frame-path objects each run builds before its first
/// cycle (renderer, one perception pipeline per ROI, the batched
/// classifier state), so work moved into those constructors shows in
/// the set-up time. `bundle` is the trained classifier trio
/// (`fig8-trained` only).
pub fn prepare(
    workload: Workload,
    opts: Options,
    bundle: Option<&Arc<ClassifierBundle>>,
) -> Inputs {
    let cam = camera();
    std::hint::black_box(SceneRenderer::new(cam.clone()));
    for roi in Roi::ALL {
        std::hint::black_box(Perception::new(PerceptionConfig::new(roi), cam.clone()));
    }
    if let Some(b) = bundle {
        std::hint::black_box(BundleBatch::new(b));
    }
    let cap = |config: HilConfig| {
        if opts.smoke {
            config.with_max_time(SMOKE_MAX_TIME_S)
        } else {
            config
        }
    };
    let mut inputs =
        Inputs { workload, opts, jobs: Vec::new(), characterizer: None, situations: Vec::new() };
    match workload {
        Workload::Fig8Oracle | Workload::Fig8Trained => {
            let source = match bundle {
                Some(b) if workload == Workload::Fig8Trained => {
                    SituationSource::Trained(Arc::clone(b))
                }
                _ => SituationSource::Oracle,
            };
            let config = HilConfig::new(Case::Case4, source).with_camera(cam).with_seed(opts.seed);
            inputs.jobs.push(Job::Hil {
                label: "case4".to_string(),
                track: fig8_track(),
                config: Box::new(cap(config)),
                telemetry: false,
            });
        }
        Workload::Characterize => {
            // Smoke mode shortens the candidate track instead of capping
            // time: `evaluate` owns its run configuration.
            let length = if opts.smoke { 25.0 } else { CHARACTERIZE_TRACK_M };
            let characterizer = Characterizer::new(
                CharacterizeConfig::new()
                    .with_track_length(length)
                    .with_camera(cam)
                    .with_seed(opts.seed)
                    .with_threads(workload.workers()),
            );
            inputs.situations =
                CHARACTERIZE_SITUATIONS.iter().map(|&i| TABLE3_SITUATIONS[i]).collect();
            for (_, (si, tuning)) in characterizer.grid(&inputs.situations) {
                let label = candidate_label(si, &tuning);
                inputs.jobs.push(Job::Candidate { label, situation: si, tuning });
            }
            inputs.characterizer = Some(characterizer);
        }
        Workload::FaultGrid => {
            let track = fault_track();
            let arms = [
                ("off", None),
                (
                    "hold",
                    Some(DegradationConfig::default().with_coast(CoastPolicy::HoldAndExtrapolate)),
                ),
                (
                    "observer",
                    Some(DegradationConfig::default().with_coast(CoastPolicy::ObserverCoast)),
                ),
            ];
            for plan in fault_plans(opts.seed, &track).into_iter().map(Arc::new) {
                for (arm, degradation) in &arms {
                    let mut config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                        .with_camera(cam.clone())
                        .with_seed(opts.seed)
                        .with_error_fit(true);
                    if !plan.is_empty() {
                        config = config.with_fault_plan(Arc::clone(&plan));
                    }
                    if let Some(d) = degradation {
                        config = config.with_degradation(*d);
                    }
                    inputs.jobs.push(Job::Hil {
                        label: format!("{}|{arm}", plan.name),
                        track: track.clone(),
                        config: Box::new(cap(config)),
                        telemetry: true,
                    });
                }
            }
            for si in DRIFT_SITUATIONS {
                let situation = TABLE3_SITUATIONS[si];
                let tuner = TunerConfig::new()
                    .with_seed(opts.seed)
                    .with_store(KnobStore::from_table(KnobTable::paper_table3()));
                let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
                    .with_camera(cam.clone())
                    .with_seed(opts.seed)
                    .with_sensor(drift_sensor())
                    .with_initial_estimate(situation)
                    .with_tuner(tuner)
                    .with_error_fit(true);
                inputs.jobs.push(Job::Hil {
                    label: format!("drift-tuned|s{si}"),
                    track: Track::for_situation(&situation, 200.0),
                    config: Box::new(cap(config)),
                    telemetry: true,
                });
            }
        }
    }
    inputs
}

/// The run configuration `Characterizer::evaluate` builds for one
/// candidate, rebuilt from public items so a candidate can be recorded
/// for the replay. The recorded run is checked against `evaluate`'s
/// result, so a drift between the two shows as a failed check.
pub fn candidate_run(inputs: &Inputs, situation: usize, tuning: KnobTuning) -> (Track, HilConfig) {
    let characterizer = inputs.characterizer.as_ref().expect("characterize inputs");
    let config = characterizer.config();
    let sit = inputs.situations[situation];
    let mut table = KnobTable::new();
    table.insert(sit, tuning);
    let run = HilConfig::new(Case::Case4, SituationSource::Oracle)
        .with_knob_table(table)
        .with_camera(config.camera.clone())
        .with_sensor(config.sensor.clone())
        .with_seed(characterizer.candidate_seed(situation, &tuning))
        .with_initial_estimate(sit)
        .with_error_fit(true);
    (Track::for_situation(&sit, config.track_length_m), run)
}

/// Runs one closed loop, attaching fresh telemetry taps when asked and
/// checking that they saw every cycle exactly once.
pub fn run_hil(
    track: &Track,
    config: &HilConfig,
    telemetry: bool,
    record: bool,
) -> (HilResult, Vec<String>) {
    let mut config = config.clone().with_trace(record);
    let taps = telemetry.then(|| {
        let metrics = Arc::new(Metrics::new());
        let bus = Arc::new(TelemetryBus::default());
        let flight = Arc::new(FlightRecorder::new(lkas_runtime::DEFAULT_FLIGHT_CAPACITY));
        config = config
            .clone()
            .with_metrics(Arc::clone(&metrics))
            .with_stream(Arc::clone(&bus))
            .with_flight_recorder(Arc::clone(&flight));
        let subscription = bus.subscribe();
        (metrics, bus, flight, subscription)
    });
    let result = HilSimulator::new(track.clone(), config).run();
    let mut problems = Vec::new();
    if let Some((metrics, bus, flight, subscription)) = taps {
        let n = result.samples;
        let seen = subscription.drain().len() as u64 + subscription.dropped();
        if metrics.counter(Counter::Cycles) != n || bus.published() != n || seen != n {
            problems.push(format!(
                "telemetry saw {} registry cycles, {} published, {seen} received for {n} cycles",
                metrics.counter(Counter::Cycles),
                bus.published()
            ));
        }
        if flight.len() as u64 != n.min(lkas_runtime::DEFAULT_FLIGHT_CAPACITY as u64) {
            problems.push(format!("flight recorder holds {} of {n} cycles", flight.len()));
        }
    }
    (result, problems)
}

/// Executes one job; a panic is caught and reported as a failed run.
fn run_job(inputs: &Inputs, job: &Job, record: bool) -> JobRun {
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Hil { track, config, telemetry, .. } => {
            let (result, mut problems) = run_hil(track, config, *telemetry, record);
            // Fig. 8: Case 4 completes the dynamic track with oracle
            // situations (neither crashing nor hitting the time cap).
            let completed = !result.crashed && result.time_s < config.max_time_s;
            if inputs.workload == Workload::Fig8Oracle && !inputs.opts.smoke && !completed {
                problems.push(format!("{}: Case 4 did not complete the track", job.label()));
            }
            (result, problems)
        }
        Job::Candidate { situation, tuning, .. } => {
            let characterizer = inputs.characterizer.as_ref().expect("characterize inputs");
            let seed = characterizer.candidate_seed(*situation, tuning);
            (characterizer.evaluate(&inputs.situations[*situation], *tuning, seed), Vec::new())
        }
    }));
    let span_s = started.elapsed().as_secs_f64();
    match ran {
        Ok((result, mut problems)) => {
            if result.samples == 0 {
                problems.push(format!("{}: no control cycles", job.label()));
            }
            JobRun {
                outcome: RunOutcome::of(job.label(), &result),
                result: Some(result),
                span_s,
                problems,
            }
        }
        Err(_) => JobRun {
            outcome: RunOutcome {
                label: job.label().to_string(),
                cycles: 0,
                crashed: false,
                mae: None,
                frame_drops: 0,
                reconfigurations: 0,
            },
            result: None,
            span_s,
            problems: vec![format!("{}: run panicked", job.label())],
        },
    }
}

/// Runs one pass of the workload on its executor workers. With
/// `record`, every `Hil` run also records its per-cycle schedule (the
/// replay's input).
pub fn run_pass(inputs: &Inputs, record: bool) -> Pass {
    let started = Instant::now();
    let jobs: Vec<&Job> = inputs.jobs.iter().collect();
    let runs =
        Executor::new(inputs.workload.workers()).run(jobs, |job| run_job(inputs, job, record));
    let wall_s = started.elapsed().as_secs_f64();
    let mut pass = Pass { wall_s, runs, winners: Vec::new(), problems: Vec::new() };
    if let Some(characterizer) = &inputs.characterizer {
        let mut outcomes = Vec::new();
        for (job, run) in inputs.jobs.iter().zip(&pass.runs) {
            if let (Job::Candidate { situation, tuning, .. }, Some(r)) = (job, &run.result) {
                outcomes.push((
                    *situation,
                    CandidateOutcome {
                        tuning: *tuning,
                        mae: if r.crashed { None } else { r.overall_mae() },
                        perception_failures: r.perception_failures,
                        moments: r.error_fit.unwrap_or_default(),
                    },
                ));
            }
        }
        let table = characterizer.assemble(&inputs.situations, outcomes).table;
        for (i, situation) in inputs.situations.iter().enumerate() {
            match table.get(situation) {
                Some(t) => pass.winners.push(candidate_label(i, &t)),
                None => pass.problems.push(format!(
                    "situation {} has no winning tuning",
                    CHARACTERIZE_SITUATIONS[i]
                )),
            }
        }
    }
    pass
}
