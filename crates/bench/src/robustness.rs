//! The robustness campaign: a grid of fault plans × evaluation cases,
//! each run under three degradation arms — policy off, the legacy
//! hold-and-extrapolate policy, and the observer-coast policy — driven
//! through the sharded [`lkas_runtime::campaign`] engine.
//!
//! The campaign report is a *pure function of `(seed, quick)`*: the
//! grid is canonical (same `(key, job)` list on every run), entries
//! come back in grid order, and nothing thread- or time-dependent
//! enters the report. `--threads 1` and `--threads 4` therefore emit
//! byte-identical JSON — and so does any `--shard i/N` split merged
//! back through [`MergedShards::entries`] and [`assemble_report`] —
//! asserted in `tests/robustness.rs`. [`CampaignConfig`] is the
//! [`Campaign`] the engine runs.
//!
//! [`MergedShards::entries`]: lkas_runtime::MergedShards::entries

use crate::Metrics;
use lkas::cases::Case;
use lkas::characterize::{CharacterizeConfig, Characterizer, KnobStore};
use lkas::degrade::{CoastPolicy, DegradationConfig};
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas::knobs::KnobTable;
use lkas::tuner::TunerConfig;
use lkas_faults::FaultPlan;
use lkas_imaging::sensor::SensorConfig;
use lkas_runtime::{run_campaign as run_campaign_engine, Campaign, CampaignSpec, Fingerprint};
use lkas_scene::camera::Camera;
use lkas_scene::situation::{SituationFeatures, TABLE3_SITUATIONS};
use lkas_scene::track::{Sector, Track};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use std::sync::Arc;

/// Schema tag of the emitted robustness report. `v4` split the single
/// policy-on arm into hold-and-extrapolate vs observer-coast (the
/// `coast` entry field, the observer summary statistics, and the
/// `blind_burst` head-to-head) and propagated each entry's fitted
/// perception-error profile into a per-cell robustness `certificate`;
/// `v3` widened the sensor-drift axis from one situation to
/// [`DRIFT_SITUATIONS`] (the `situation` entry field and the
/// per-situation `drift_situations` summary); `v2` introduced the axis
/// (the `knobs` entry field and the drift summary statistics).
pub const ROBUSTNESS_SCHEMA: &str = "lkas-robustness-v4";

/// Campaign parameters. `threads` affects wall-clock only, never report
/// content.
///
/// Construct with [`CampaignConfig::new`] plus the `with_*` builders;
/// the struct is `#[non_exhaustive]`, so downstream crates go through
/// the builder surface (individual fields stay readable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Seed shared by the fault plans and the sensor noise.
    pub seed: u64,
    /// Executor worker threads.
    pub threads: usize,
    /// Shrinks the grid (one case, four plans, short track) for CI.
    pub quick: bool,
}

impl CampaignConfig {
    /// The default full-grid campaign at a seed.
    pub fn new(seed: u64) -> Self {
        CampaignConfig { seed, threads: 1, quick: false }
    }

    /// Replaces the worker-thread count (builder style). Clamped to at
    /// least 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Switches the shrunk CI grid on or off (builder style).
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }
}

/// Plan name of the sensor-drift grid entries (which carry no fault
/// plan; the "fault" is a drifted sensor model).
pub const DRIFT_PLAN_NAME: &str = "sensor-drift";

/// Plan name of the blind-burst head-to-head entries (the pinned
/// hold-vs-observer scenario; see [`blind_burst_track`]).
pub const BLIND_BURST_PLAN_NAME: &str = "blind-burst";

/// The degradation arm a fault-grid entry runs under. The campaign
/// grids every `(case, plan)` cell over all three, so every report
/// carries the off/hold A/B the policy was originally judged by *and*
/// the hold/observer A/B the coasting estimator is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyArm {
    /// No degradation policy: raw misses reach the controller.
    Off,
    /// [`DegradationConfig::default`] with the legacy
    /// hold-and-extrapolate bridging ([`CoastPolicy::HoldAndExtrapolate`]).
    Hold,
    /// [`DegradationConfig::default`] with the observer-based coasting
    /// estimator ([`CoastPolicy::ObserverCoast`]).
    Observer,
}

impl PolicyArm {
    /// All arms, in grid order.
    pub const ALL: [PolicyArm; 3] = [PolicyArm::Off, PolicyArm::Hold, PolicyArm::Observer];

    /// The report's `coast` column value (also the grid-key fragment
    /// suffix).
    pub fn coast_name(self) -> &'static str {
        match self {
            PolicyArm::Off => "off",
            PolicyArm::Hold => "hold",
            PolicyArm::Observer => "observer",
        }
    }

    /// `true` when a degradation policy runs at all (the legacy
    /// `policy` report column).
    pub fn policy_enabled(self) -> bool {
        self != PolicyArm::Off
    }

    /// The degradation configuration of this arm, `None` for
    /// [`PolicyArm::Off`]. Hold and observer differ *only* in
    /// [`CoastPolicy`], so their A/B isolates the coasting estimator.
    pub fn degradation(self) -> Option<DegradationConfig> {
        match self {
            PolicyArm::Off => None,
            PolicyArm::Hold => {
                Some(DegradationConfig::default().with_coast(CoastPolicy::HoldAndExtrapolate))
            }
            PolicyArm::Observer => {
                Some(DegradationConfig::default().with_coast(CoastPolicy::ObserverCoast))
            }
        }
    }
}

/// One grid point's work item: a fault-injection run or a
/// drifted-sensor run comparing knob sources.
#[derive(Debug, Clone)]
pub enum CampaignJob {
    /// A fault-plan run, in one of the three degradation arms.
    Fault {
        /// Evaluation case.
        case: Case,
        /// Injected fault plan.
        plan: Arc<FaultPlan>,
        /// Degradation arm.
        arm: PolicyArm,
    },
    /// The pinned blind-burst scenario ([`blind_burst_track`] +
    /// [`blind_burst_plan`]) in the hold or observer arm — the
    /// head-to-head the coasting estimator is judged by.
    BlindBurst {
        /// Degradation arm ([`PolicyArm::Hold`] or
        /// [`PolicyArm::Observer`]).
        arm: PolicyArm,
    },
    /// A run under the drifted sensor model ([`drift_sensor`]) on a
    /// single-situation straight track, with the frozen characterized
    /// table or the online tuner warm-started from a knob store.
    Drift {
        /// Index into [`TABLE3_SITUATIONS`] of the driven situation
        /// (one of [`DRIFT_SITUATIONS`] on the campaign grid).
        situation: usize,
        /// Knob source.
        knobs: DriftKnobs,
    },
}

/// Which knob source a drift run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftKnobs {
    /// The frozen characterized table (design-time Table III).
    Static,
    /// The online tuner warm-started from the characterized store,
    /// optionally overriding the default exploration rate (`Some(0.0)`
    /// disables exploration entirely — pure prior).
    Tuned {
        /// Exploration-rate override; `None` keeps the
        /// [`TunerConfig`] default.
        epsilon: Option<f64>,
    },
}

impl DriftKnobs {
    /// The report's `knobs` column value: `"static"` or `"tuned"`.
    pub fn name(self) -> &'static str {
        match self {
            DriftKnobs::Static => "static",
            DriftKnobs::Tuned { .. } => "tuned",
        }
    }
}

/// One grid point's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignEntry {
    /// Evaluation case name (Table V).
    pub case: String,
    /// Fault plan name, or [`DRIFT_PLAN_NAME`] for the drift axis.
    pub plan: String,
    /// `true` if the degradation policy was enabled.
    pub policy: bool,
    /// Miss-bridging arm: `"off"` (no policy), `"hold"`
    /// (hold-and-extrapolate), or `"observer"` (observer coasting).
    /// Drift-axis entries run policy-free and report `"off"`.
    pub coast: String,
    /// Knob source: `"static"` (characterized table) or `"tuned"`
    /// (online re-characterization).
    pub knobs: String,
    /// Drift-axis entries: index into [`TABLE3_SITUATIONS`] of the
    /// driven situation. `None` on the fault axis.
    pub situation: Option<usize>,
    /// `true` if the vehicle left the lane.
    pub crashed: bool,
    /// Sector of the crash, if any.
    pub crash_sector: Option<usize>,
    /// Overall MAE of `y_L` (m), rounded to µm for byte-stable output.
    pub mae: Option<f64>,
    /// Control samples taken.
    pub samples: u64,
    /// Perception-stage failures (no lane found).
    pub perception_failures: u64,
    /// Camera frames dropped by the plan.
    pub frame_drops: u64,
    /// Samples with at least one injected fault.
    pub faulted_cycles: u64,
    /// Samples spent in degraded (safe) mode.
    pub degraded_samples: u64,
    /// Safe-mode entries.
    pub degraded_entries: u64,
    /// Misses bridged by hold-and-extrapolate.
    pub measurement_holds: u64,
    /// Misses beyond the hold budget bridged by the observer's
    /// open-loop estimate (observer arm only).
    pub observer_coasts: u64,
    /// Innovation-gated re-acquisitions after a coast (observer arm
    /// only).
    pub observer_reacquisitions: u64,
    /// Per-cell robustness margin: the run's fitted perception-error
    /// profile propagated through the nominal closed loop
    /// ([`lkas_control::certify`]); `< 1` is certified. `None` when the
    /// run took no control samples.
    pub certificate: Option<f64>,
}

/// Aggregates over the grid, split by degradation arm. The
/// `policy_off`/`policy_on` pair keeps its historical meaning — the
/// original off-vs-hold A/B — and the observer arm reports alongside,
/// so v3-era trend tracking stays comparable.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSummary {
    /// Grid points per degradation arm.
    pub runs_per_arm: usize,
    /// Crashes with the policy off.
    pub crashes_policy_off: usize,
    /// Crashes under hold-and-extrapolate.
    pub crashes_policy_on: usize,
    /// Crashes under observer coasting.
    pub crashes_observer: usize,
    /// Crash fraction with the policy off.
    pub crash_rate_policy_off: f64,
    /// Crash fraction under hold-and-extrapolate.
    pub crash_rate_policy_on: f64,
    /// Crash fraction under observer coasting.
    pub crash_rate_observer: f64,
    /// Mean MAE across non-crashed policy-off runs (m).
    pub mean_mae_policy_off: Option<f64>,
    /// Mean MAE across non-crashed hold-arm runs (m).
    pub mean_mae_policy_on: Option<f64>,
    /// Mean MAE across non-crashed observer-arm runs (m).
    pub mean_mae_observer: Option<f64>,
    /// Fraction of policy-enabled control samples spent in safe mode
    /// (hold and observer arms pooled).
    pub time_in_degraded_frac: f64,
    /// Fault-grid entries carrying a certificate.
    pub certificate_cells: usize,
    /// Fault-grid entries whose certificate margin is `< 1`.
    pub certified_cells: usize,
    /// Largest certificate margin over the fault grid (the cell
    /// closest to — or past — losing its certificate).
    pub worst_certificate: Option<f64>,
    /// Head-to-head on the pinned Case-3 blind-burst scenario
    /// ([`blind_burst_track`]): does observer coasting beat
    /// hold-and-extrapolate where the loop goes blind? `None` when the
    /// grid lacks the scenario (partial entry sets).
    pub blind_burst: Option<BlindBurstComparison>,
    /// Primary drift-situation MAE ([`DRIFT_SITUATIONS`]`[0]`) with
    /// the frozen characterized table (m), `None` if the run crashed
    /// or the axis was absent.
    pub drift_mae_static: Option<f64>,
    /// Primary drift-situation MAE with the online tuner (m), `None`
    /// if the run crashed or the axis was absent.
    pub drift_mae_tuned: Option<f64>,
    /// Per-situation drift results, in [`DRIFT_SITUATIONS`] order.
    pub drift_situations: Vec<DriftSituationSummary>,
}

/// The Case-3 blind-burst head-to-head: the hold and observer arms of
/// the pinned blind-burst cell, reduced to the lexicographic survival
/// metric the coasting estimator is judged by — survive when the other
/// arm crashes; if both crash, stay in the lane longer; if both
/// survive, track at least as accurately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlindBurstComparison {
    /// Evaluation case of the compared cell.
    pub case: String,
    /// Fault plan of the compared cell.
    pub plan: String,
    /// `true` if the hold arm left the lane.
    pub hold_crashed: bool,
    /// `true` if the observer arm left the lane.
    pub observer_crashed: bool,
    /// Control samples the hold arm survived.
    pub hold_samples: u64,
    /// Control samples the observer arm survived.
    pub observer_samples: u64,
    /// Hold-arm MAE (m), `None` after a crash.
    pub hold_mae: Option<f64>,
    /// Observer-arm MAE (m), `None` after a crash.
    pub observer_mae: Option<f64>,
    /// Misses the observer arm bridged beyond the hold budget.
    pub observer_coasts: u64,
    /// Innovation-gated re-acquisitions in the observer arm.
    pub observer_reacquisitions: u64,
    /// The lexicographic verdict (see type docs). CI gates on this.
    pub observer_beats_hold: bool,
}

/// The drift axis outcome for one situation: the static/tuned MAE
/// pair the online re-characterization is judged by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSituationSummary {
    /// Index into [`TABLE3_SITUATIONS`].
    pub situation: usize,
    /// MAE with the frozen characterized table (m), `None` after a
    /// crash.
    pub mae_static: Option<f64>,
    /// MAE with the online tuner (m), `None` after a crash.
    pub mae_tuned: Option<f64>,
}

/// The emitted robustness report.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// Schema tag ([`ROBUSTNESS_SCHEMA`]).
    pub schema: String,
    /// Campaign seed.
    pub seed: u64,
    /// `true` for the shrunk CI grid.
    pub quick: bool,
    /// One entry per (case, plan, policy) grid point, in grid order.
    pub entries: Vec<CampaignEntry>,
    /// Aggregates over the grid.
    pub summary: CampaignSummary,
}

/// The campaign's driving scenario: straight → right turn → straight,
/// exercising both a knob switch and the turn the safe mode must
/// survive. The 300 m approach leaves room for the frame-drop plan's
/// blind window: long enough for an unhardened 50 km/h loop to coast
/// blind into the curve, yet long enough after re-acquisition for a
/// degraded 30 km/h loop to recenter before the curve begins.
pub fn campaign_track(quick: bool) -> Track {
    let (a, b, c) = if quick { (300.0, 140.0, 80.0) } else { (300.0, 280.0, 150.0) };
    Track::new(vec![
        Sector::for_situation(&TABLE3_SITUATIONS[0], a),
        Sector::for_situation(&TABLE3_SITUATIONS[7], b),
        Sector::for_situation(&TABLE3_SITUATIONS[0], c),
    ])
}

/// The standard fault-plan grid over a run of roughly `horizon` control
/// cycles. Window positions are fractions of the horizon, so the same
/// plan names stress the same driving phases on any track length.
pub fn standard_plans(seed: u64, horizon: u64, quick: bool) -> Vec<FaultPlan> {
    let h = horizon.max(100);
    let at = |frac: f64| (h as f64 * frac) as u64;
    let mut plans = vec![
        FaultPlan::named("nominal", seed),
        // Fixed, not horizon-relative: the burst must begin while the
        // camera preview still shows the approach straight (so the
        // unhardened loop never learns about the turn) and must end
        // with enough straight left for the degraded loop to recenter
        // — cycles 150..650 on the 300 m approach of
        // [`campaign_track`].
        FaultPlan::named("frame-drop-burst", seed).drop_burst(150, 500),
        FaultPlan::named("bayer-storm", seed)
            .hot_pixels(at(0.15), 40, 0.03)
            .row_banding(at(0.45), 40, 3, 0.35)
            .exposure_glitch(at(0.70), 30, 2.5),
    ];
    if !quick {
        plans.push(FaultPlan::named("misclassify", seed).misclassify(at(0.30), 20));
        plans.push(FaultPlan::named("deadline-overrun", seed).deadline_overrun(at(0.20), 60, 20.0));
        plans.push(
            FaultPlan::named("actuation", seed)
                .actuation_lagged(at(0.35), 40, 0.25)
                .actuation_stuck(at(0.75), 8),
        );
    }
    plans.push(FaultPlan::random("random-mix", seed, h, 8));
    plans
}

/// The campaign camera: half resolution under `--quick` so the CI grid
/// stays fast, the full automotive model otherwise.
pub fn campaign_camera(quick: bool) -> Camera {
    if quick {
        Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
    } else {
        Camera::default_automotive()
    }
}

/// The evaluation cases in the grid.
pub fn campaign_cases(quick: bool) -> Vec<Case> {
    if quick {
        vec![Case::Case3]
    } else {
        vec![Case::Case1, Case::Case2, Case::Case3, Case::Case4]
    }
}

/// The blind-burst track: one long daylight straight. Deliberately
/// *not* the campaign track and *not* `quick`-dependent — the
/// head-to-head isolates what happens when the loop goes blind
/// mid-straight and must re-acquire, with no curve to entangle the
/// verdict (the gyro-corrected coast cannot sense road curvature, so a
/// curve would measure the scenario, not the estimator). Mirrors the
/// `observer_coast_outlasts_hold_and_extrapolate_through_a_blind_burst`
/// acceptance test in `lkas::hil`.
pub fn blind_burst_track() -> Track {
    Track::for_situation(&TABLE3_SITUATIONS[0], 600.0)
}

/// The blind-burst fault plan: a 400-cycle frame-drop burst starting
/// at cycle 200 — roughly 10 s blind at 50 km/h, two orders of
/// magnitude past the hold budget.
pub fn blind_burst_plan(seed: u64) -> FaultPlan {
    FaultPlan::named(BLIND_BURST_PLAN_NAME, seed).drop_burst(200, 400)
}

/// The situations the drift axis grids over, as indices into
/// [`TABLE3_SITUATIONS`]: the dark straight with white continuous
/// markings (index 6, the primary — its characterized tuning is the
/// most aggressive ISP approximation and therefore the entry most
/// exposed to a drifted sensor), plus the nominal daylight straight
/// (index 0) and its dashed-marking variant (index 1), which bound how
/// the tuner behaves where the frozen table is *less* fragile. The
/// headline `drift_mae_static/tuned` summary fields and the standalone
/// `drift` subcommand default to the primary.
pub const DRIFT_SITUATIONS: [usize; 3] = [6, 0, 1];

/// The drifted sensor model: noise well above the nominal
/// characterization conditions, so the frozen table's choice for the
/// primary drift situation ([`DRIFT_SITUATIONS`]`[0]`) is no longer the
/// best arm.
pub fn drift_sensor() -> SensorConfig {
    SensorConfig { read_noise: 0.06, shot_noise: 0.08, gain: 1.0 }
}

/// The drift-axis track: a single long straight in one drift
/// situation, long enough for the tuner's measurement windows to pay
/// for their exploration.
pub fn drift_track(situation: &SituationFeatures, quick: bool) -> Track {
    Track::for_situation(situation, if quick { 400.0 } else { 500.0 })
}

/// The warm-start [`KnobStore`] for one drift-axis situation (an index
/// into [`TABLE3_SITUATIONS`]): a short characterization of that
/// situation under the *nominal* sensor, folded over the paper's
/// Table III prior. The tuner starts from what design time knew — it
/// must discover the drift online.
pub fn warm_start_store(seed: u64, camera: &Camera, situation_index: usize) -> KnobStore {
    let characterizer = Characterizer::new(
        CharacterizeConfig::new()
            .with_track_length(140.0)
            .with_threads(1)
            .with_camera(camera.clone())
            .with_seed(seed),
    );
    let sweep =
        characterizer.characterize(&TABLE3_SITUATIONS[situation_index..situation_index + 1]);
    let mut store = KnobStore::from_table(KnobTable::paper_table3());
    for (situation, outcomes) in sweep.sweeps {
        for outcome in outcomes {
            store.record_outcome(&situation, outcome.tuning, outcome.mae);
        }
    }
    store
}

/// The `params` blob of a robustness shard artifact.
#[derive(Serialize, Deserialize)]
struct Params {
    seed: u64,
    quick: bool,
}

impl Campaign for CampaignConfig {
    type Job = CampaignJob;
    type Entry = CampaignEntry;

    fn name(&self) -> &'static str {
        "robustness_campaign"
    }

    fn params(&self) -> Value {
        serde_json::to_value(&Params { seed: self.seed, quick: self.quick })
    }

    /// The stable content fingerprint of a campaign configuration:
    /// everything that determines report content (`seed`, `quick` —
    /// track, camera, plans, and cases all derive from these) and
    /// nothing that does not (`threads`). Embedded in grid keys and
    /// shard artifacts so checkpoints and merges can only combine
    /// evaluations of the same configuration.
    fn fingerprint(&self) -> String {
        // The leading tag carries the grid revision: v4 split the policy
        // arm three ways, so v3-era checkpoints and shard artifacts can
        // never be merged into a v4 run.
        Fingerprint::new()
            .push_str("robustness-v4")
            .push_u64(self.seed)
            .push_u64(self.quick as u64)
            .finish()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    /// The canonical campaign grid: `(content key, job)` in report order
    /// — the fault grid followed by the drift axis (a static/tuned pair
    /// per [`DRIFT_SITUATIONS`] entry).
    fn grid(&self) -> Vec<(String, CampaignJob)> {
        let track = campaign_track(self.quick);
        // Rough cycle horizon: track length at the slow speed bound over
        // the nominal 25 ms period — plan windows only need to land
        // mid-drive.
        let horizon = (track.total_length() / 8.33 / 0.025) as u64;
        let plans: Vec<Arc<FaultPlan>> =
            standard_plans(self.seed, horizon, self.quick).into_iter().map(Arc::new).collect();
        let config_hash = self.fingerprint();
        let mut grid = Vec::new();
        for &case in &campaign_cases(self.quick) {
            for plan in &plans {
                for arm in PolicyArm::ALL {
                    let key = format!(
                        "{}|{}|arm-{}|seed={:016x}|cfg={config_hash}",
                        case.name(),
                        plan.name,
                        arm.coast_name(),
                        self.seed
                    );
                    grid.push((key, CampaignJob::Fault { case, plan: Arc::clone(plan), arm }));
                }
            }
        }
        for arm in [PolicyArm::Hold, PolicyArm::Observer] {
            let key = format!(
                "{}|{BLIND_BURST_PLAN_NAME}|arm-{}|seed={:016x}|cfg={config_hash}",
                Case::Case3.name(),
                arm.coast_name(),
                self.seed
            );
            grid.push((key, CampaignJob::BlindBurst { arm }));
        }
        for &situation in &DRIFT_SITUATIONS {
            for knobs in [DriftKnobs::Static, DriftKnobs::Tuned { epsilon: None }] {
                let key = format!(
                    "{}|{DRIFT_PLAN_NAME}|s{situation:02}|knobs-{}|seed={:016x}|cfg={config_hash}",
                    Case::Case4.name(),
                    knobs.name(),
                    self.seed
                );
                grid.push((key, CampaignJob::Drift { situation, knobs }));
            }
        }
        grid
    }

    /// Runs one grid point with `metrics` attached.
    fn evaluate(
        &self,
        key: &str,
        job: CampaignJob,
        metrics: Option<&Arc<Metrics>>,
    ) -> CampaignEntry {
        eprintln!("[run] {key}");
        let (track, mut config) = build_job(self, &job, None);
        config.metrics = metrics.cloned();
        entry_for(&job, &HilSimulator::new(track, config).run())
    }
}

/// Reconstructs the campaign configuration from a shard artifact's
/// `params` blob (the recorded `config_hash` cross-checks the
/// reconstruction).
///
/// # Errors
///
/// Returns a message when a parameter is missing or mistyped.
pub fn config_from_params(params: &Value) -> Result<CampaignConfig, String> {
    let p: Params = serde_json::from_value(params)
        .map_err(|e| format!("robustness params do not parse: {e}"))?;
    Ok(CampaignConfig::new(p.seed).with_quick(p.quick))
}

/// Builds one grid point's closed loop: the track it drives and its
/// [`HilConfig`]. This is the single configuration path behind every
/// caller — the campaign's [`Campaign::evaluate`], the fleet service's
/// runner and the `drift` subcommand — which is what makes a
/// fleet-assembled report byte-identical to the single-process one.
/// Callers attach metrics, a stream, a flight recorder or tile threads
/// with the ordinary `HilConfig` builders (none of them changes the
/// entry), run the loop, and reduce the result with [`entry_for`].
///
/// `store` warm-starts the tuned drift arm (a tenant's persisted
/// [`KnobStore`] in the fleet service); `None` characterizes a fresh
/// [`warm_start_store`]. Every other job ignores it.
pub fn build_job(
    cfg: &CampaignConfig,
    job: &CampaignJob,
    store: Option<KnobStore>,
) -> (Track, HilConfig) {
    match job {
        CampaignJob::Fault { case, plan, arm } => {
            let mut config = HilConfig::new(*case, SituationSource::Oracle)
                .with_seed(cfg.seed)
                .with_camera(campaign_camera(cfg.quick))
                .with_error_fit(true);
            config.fault_plan = (!plan.is_empty()).then(|| Arc::clone(plan));
            config.degradation = arm.degradation();
            (campaign_track(cfg.quick), config)
        }
        CampaignJob::BlindBurst { arm } => {
            // Pinned scenario: its own track, camera, and plan — the
            // campaign's `--quick` flag must not move the goalposts of
            // the hold-vs-observer verdict.
            let mut config = HilConfig::new(Case::Case3, SituationSource::Oracle)
                .with_seed(cfg.seed)
                .with_camera(campaign_camera(true))
                .with_fault_plan(Arc::new(blind_burst_plan(cfg.seed)))
                .with_error_fit(true);
            config.degradation = arm.degradation();
            (blind_burst_track(), config)
        }
        CampaignJob::Drift { situation, knobs } => {
            let camera = campaign_camera(cfg.quick);
            let features = TABLE3_SITUATIONS[*situation];
            let mut config = HilConfig::new(Case::Case4, SituationSource::Oracle)
                .with_seed(cfg.seed)
                .with_camera(camera.clone())
                .with_sensor(drift_sensor())
                .with_initial_estimate(features)
                .with_error_fit(true);
            if let DriftKnobs::Tuned { epsilon } = *knobs {
                let store =
                    store.unwrap_or_else(|| warm_start_store(cfg.seed, &camera, *situation));
                let mut tuner = TunerConfig::new().with_seed(cfg.seed).with_store(store);
                if let Some(eps) = epsilon {
                    tuner = tuner.with_epsilon(eps);
                }
                config = config.with_tuner(tuner);
            }
            (drift_track(&features, cfg.quick), config)
        }
    }
}

/// Assembles full-grid entries (in canonical grid order) into the
/// report.
pub fn assemble_report(cfg: &CampaignConfig, entries: Vec<CampaignEntry>) -> RobustnessReport {
    let summary = summarize(&entries);
    RobustnessReport {
        schema: ROBUSTNESS_SCHEMA.to_string(),
        seed: cfg.seed,
        quick: cfg.quick,
        entries,
        summary,
    }
}

/// Runs the full campaign grid and assembles the report — the
/// single-process path: the whole grid through the campaign engine with
/// no checkpoint. Pass a shared telemetry registry to aggregate stage
/// timings and fault counters across every run (timings are wall-clock
/// and belong in the separate telemetry artifact, never in the report).
pub fn run_campaign(cfg: &CampaignConfig, metrics: Option<&Arc<Metrics>>) -> RobustnessReport {
    let run = run_campaign_engine(cfg, &CampaignSpec::default(), metrics);
    assemble_report(cfg, run.entries.into_iter().map(|(_, entry)| entry).collect())
}

/// Schema tag of the standalone drift report.
pub const DRIFT_SCHEMA: &str = "lkas-drift-v1";

/// The standalone drift report: *purely behavioral* fields (what the
/// vehicle did), deliberately excluding the knob source and tuner
/// counters. With exploration disabled the online tuner must be
/// indistinguishable from the frozen table, and CI asserts that as
/// byte-identity between a `--knobs static` and a `--knobs tuned
/// --epsilon 0` report — possible only because the report carries no
/// which-mode metadata.
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    /// Schema tag ([`DRIFT_SCHEMA`]).
    pub schema: String,
    /// Run seed.
    pub seed: u64,
    /// `true` for the short CI track.
    pub quick: bool,
    /// Overall MAE of `y_L` (m), rounded to µm; `None` after a crash.
    pub mae: Option<f64>,
    /// `true` if the vehicle left the lane.
    pub crashed: bool,
    /// Control samples taken.
    pub samples: u64,
    /// Perception-stage failures (no lane found).
    pub perception_failures: u64,
    /// Knob reconfigurations applied during the run.
    pub reconfigurations: u64,
}

/// Runs the drift scenario on one situation (an index into
/// [`TABLE3_SITUATIONS`]) and packages the standalone report.
pub fn run_drift(cfg: &CampaignConfig, knobs: DriftKnobs, situation: usize) -> DriftReport {
    let (track, config) = build_job(cfg, &CampaignJob::Drift { situation, knobs }, None);
    drift_report_for(cfg, &HilSimulator::new(track, config).run())
}

/// Packages a drift-scenario [`HilResult`] as the standalone report.
/// Split out of [`run_drift`] for drivers that run the loop themselves
/// (the fleet service warm-starts [`build_job`] from a tenant's
/// persisted store and attaches taps, then packages the result with
/// this).
pub fn drift_report_for(cfg: &CampaignConfig, r: &HilResult) -> DriftReport {
    DriftReport {
        schema: DRIFT_SCHEMA.to_string(),
        seed: cfg.seed,
        quick: cfg.quick,
        mae: r.overall_mae().map(round_um),
        crashed: r.crashed,
        samples: r.samples,
        perception_failures: r.perception_failures,
        reconfigurations: r.reconfigurations,
    }
}

/// Serializes a drift report as pretty JSON (byte-stable).
///
/// # Panics
///
/// Panics on an internal serde error (cannot happen for this type).
pub fn drift_report_json(report: &DriftReport) -> String {
    serde_json::to_string_pretty(report).expect("serialize drift report")
}

/// The closed loop certificates propagate through: the paper's nominal
/// Table I design (50 km/h, 25 ms period, 24.6 ms delay). The
/// *profile* is per cell; the loop is held fixed so margins compare
/// across cells on the error envelope alone.
fn certification_controller() -> lkas_control::Controller {
    lkas_control::design_controller(&lkas_control::ControllerConfig {
        speed_kmph: 50.0,
        h_ms: 25.0,
        tau_ms: 24.6,
    })
    .expect("nominal certification design")
}

/// Propagates a run's fitted perception-error profile into the
/// per-cell robustness margin (sequential f64 — bit-identical on every
/// thread count and shard split).
fn certificate_for(r: &HilResult) -> Option<f64> {
    let profile = r.error_profile()?;
    Some(round_um(lkas_control::certify(&certification_controller(), &profile).margin))
}

/// Reduces one job's [`HilResult`] to its report entry.
pub fn entry_for(job: &CampaignJob, r: &HilResult) -> CampaignEntry {
    let (case, plan, arm, knobs, situation) = match job {
        CampaignJob::Fault { case, plan, arm } => {
            (case.name(), plan.name.as_str(), *arm, "static", None)
        }
        CampaignJob::BlindBurst { arm } => {
            (Case::Case3.name(), BLIND_BURST_PLAN_NAME, *arm, "static", None)
        }
        CampaignJob::Drift { situation, knobs } => {
            (Case::Case4.name(), DRIFT_PLAN_NAME, PolicyArm::Off, knobs.name(), Some(*situation))
        }
    };
    CampaignEntry {
        case: case.to_string(),
        plan: plan.to_string(),
        policy: arm.policy_enabled(),
        coast: arm.coast_name().to_string(),
        knobs: knobs.to_string(),
        situation,
        crashed: r.crashed,
        crash_sector: r.crash_sector,
        mae: r.overall_mae().map(round_um),
        samples: r.samples,
        perception_failures: r.perception_failures,
        frame_drops: r.frame_drops,
        faulted_cycles: r.faulted_cycles,
        degraded_samples: r.degraded_samples,
        degraded_entries: r.degraded_entries,
        measurement_holds: r.measurement_holds,
        observer_coasts: r.observer_coasts,
        observer_reacquisitions: r.observer_reacquisitions,
        certificate: certificate_for(r),
    }
}

/// The blind-burst head-to-head, reduced from the hold/observer pair
/// of one cell.
fn compare_blind_burst(hold: &CampaignEntry, obs: &CampaignEntry) -> BlindBurstComparison {
    // Lexicographic: survival, then (both crashed) distance survived,
    // then (both survived) tracking accuracy — where a coasted burst
    // must do no worse than a held one.
    let observer_beats_hold = match (hold.crashed, obs.crashed) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => obs.samples > hold.samples,
        (false, false) => matches!((obs.mae, hold.mae), (Some(o), Some(h)) if o <= h),
    };
    BlindBurstComparison {
        case: obs.case.clone(),
        plan: obs.plan.clone(),
        hold_crashed: hold.crashed,
        observer_crashed: obs.crashed,
        hold_samples: hold.samples,
        observer_samples: obs.samples,
        hold_mae: hold.mae,
        observer_mae: obs.mae,
        observer_coasts: obs.observer_coasts,
        observer_reacquisitions: obs.observer_reacquisitions,
        observer_beats_hold,
    }
}

fn summarize(entries: &[CampaignEntry]) -> CampaignSummary {
    // The drift axis (static vs tuned knobs) and the blind-burst axis
    // (hold vs observer, no off arm) are their own comparisons; both
    // stay out of the three-arm fault statistics.
    let fault: Vec<&CampaignEntry> = entries
        .iter()
        .filter(|e| e.plan != DRIFT_PLAN_NAME && e.plan != BLIND_BURST_PLAN_NAME)
        .collect();
    let arm = |coast: &'static str| fault.iter().copied().filter(move |e| e.coast == coast);
    let drift_mae = |situation: usize, knobs: &str| {
        entries
            .iter()
            .find(|e| {
                e.plan == DRIFT_PLAN_NAME && e.situation == Some(situation) && e.knobs == knobs
            })
            .filter(|e| !e.crashed)
            .and_then(|e| e.mae)
    };
    // One row per situation the entries actually carry (grid order), so
    // a partial entry set — e.g. the unit tests below — summarizes what
    // it has instead of inventing rows.
    let mut drift_situations = Vec::new();
    for entry in entries.iter().filter(|e| e.plan == DRIFT_PLAN_NAME) {
        if let Some(situation) = entry.situation {
            if drift_situations.iter().all(|s: &DriftSituationSummary| s.situation != situation) {
                drift_situations.push(DriftSituationSummary {
                    situation,
                    mae_static: drift_mae(situation, "static"),
                    mae_tuned: drift_mae(situation, "tuned"),
                });
            }
        }
    }
    let crashes = |coast: &'static str| arm(coast).filter(|e| e.crashed).count();
    let mean_mae = |coast: &'static str| {
        let maes: Vec<f64> = arm(coast).filter(|e| !e.crashed).filter_map(|e| e.mae).collect();
        if maes.is_empty() {
            None
        } else {
            Some(round_um(maes.iter().sum::<f64>() / maes.len() as f64))
        }
    };
    let runs_per_arm = arm("off").count();
    let (on_degraded, on_samples) = fault
        .iter()
        .filter(|e| e.policy)
        .fold((0u64, 0u64), |(d, s), e| (d + e.degraded_samples, s + e.samples));
    // The certificate census runs over the fault grid: how many cells
    // carry a margin, how many certify, and the worst margin seen.
    let margins: Vec<f64> = fault.iter().filter_map(|e| e.certificate).collect();
    let certified_cells = margins.iter().filter(|&&m| m < 1.0).count();
    let worst_certificate = margins
        .iter()
        .copied()
        .fold(None, |worst: Option<f64>, m| Some(worst.map_or(m, |w| if m > w { m } else { w })));
    // The blind-burst head-to-head: hold arm vs observer arm of the
    // pinned scenario.
    let burst_arm =
        |coast: &str| entries.iter().find(|e| e.plan == BLIND_BURST_PLAN_NAME && e.coast == coast);
    let blind_burst = match (burst_arm("hold"), burst_arm("observer")) {
        (Some(hold), Some(obs)) => Some(compare_blind_burst(hold, obs)),
        _ => None,
    };
    CampaignSummary {
        runs_per_arm,
        crashes_policy_off: crashes("off"),
        crashes_policy_on: crashes("hold"),
        crashes_observer: crashes("observer"),
        crash_rate_policy_off: rate(crashes("off"), runs_per_arm),
        crash_rate_policy_on: rate(crashes("hold"), runs_per_arm),
        crash_rate_observer: rate(crashes("observer"), runs_per_arm),
        mean_mae_policy_off: mean_mae("off"),
        mean_mae_policy_on: mean_mae("hold"),
        mean_mae_observer: mean_mae("observer"),
        time_in_degraded_frac: rate(on_degraded as usize, on_samples as usize),
        certificate_cells: margins.len(),
        certified_cells,
        worst_certificate,
        blind_burst,
        drift_mae_static: drift_mae(DRIFT_SITUATIONS[0], "static"),
        drift_mae_tuned: drift_mae(DRIFT_SITUATIONS[0], "tuned"),
        drift_situations,
    }
}

fn rate(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        round_um(num as f64 / denom as f64)
    }
}

/// Rounds to 1e-6 so report floats print identically everywhere.
fn round_um(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Serializes a report as pretty JSON (byte-stable for a given report).
///
/// # Panics
///
/// Panics on an internal serde error (cannot happen for this type).
pub fn report_json(report: &RobustnessReport) -> String {
    serde_json::to_string_pretty(report).expect("serialize robustness report")
}

/// Writes the report under `path` atomically (temp file + rename),
/// creating parent directories.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_report(report: &RobustnessReport, path: &Path) {
    lkas_runtime::write_atomic(path, report_json(report).as_bytes())
        .expect("write robustness report");
    eprintln!("[robustness] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grid_is_deterministic_and_named() {
        let a = standard_plans(7, 2000, false);
        let b = standard_plans(7, 2000, false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert_eq!(a[0].name, "nominal");
        assert!(a[0].is_empty());
        assert!(a.iter().skip(1).all(|p| !p.is_empty()));
        // Quick grid is a strict subset by name.
        let quick = standard_plans(7, 2000, true);
        assert_eq!(quick.len(), 4);
    }

    #[test]
    fn windows_land_inside_the_horizon() {
        for plan in standard_plans(3, 1500, false) {
            for w in plan.windows() {
                assert!(w.start_cycle < 1500, "{}: window at {}", plan.name, w.start_cycle);
            }
        }
    }

    fn mk(
        plan: &str,
        coast: &str,
        knobs: &str,
        crashed: bool,
        mae: f64,
        degraded: u64,
        certificate: Option<f64>,
    ) -> CampaignEntry {
        CampaignEntry {
            case: "case3".into(),
            plan: plan.into(),
            policy: coast != "off",
            coast: coast.into(),
            knobs: knobs.into(),
            situation: (plan == DRIFT_PLAN_NAME).then_some(DRIFT_SITUATIONS[0]),
            crashed,
            crash_sector: None,
            mae: Some(mae),
            samples: 100,
            perception_failures: 0,
            frame_drops: 0,
            faulted_cycles: 0,
            degraded_samples: degraded,
            degraded_entries: 0,
            measurement_holds: 0,
            observer_coasts: 0,
            observer_reacquisitions: 0,
            certificate,
        }
    }

    #[test]
    fn summary_math() {
        let entries = vec![
            mk("p", "off", "static", true, 0.5, 0, Some(1.2)),
            mk("p", "off", "static", false, 0.1, 0, Some(0.1)),
            mk("p", "hold", "static", false, 0.2, 50, Some(0.5)),
            mk("p", "observer", "static", false, 0.15, 30, Some(0.4)),
            mk(DRIFT_PLAN_NAME, "off", "static", false, 0.09, 0, None),
            mk(DRIFT_PLAN_NAME, "off", "tuned", false, 0.08, 0, None),
        ];
        let s = summarize(&entries);
        // Drift entries stay out of the policy arms.
        assert_eq!(s.runs_per_arm, 2);
        assert_eq!(s.crashes_policy_off, 1);
        assert_eq!(s.crashes_policy_on, 0);
        assert_eq!(s.crashes_observer, 0);
        assert_eq!(s.crash_rate_policy_off, 0.5);
        // Crashed runs are excluded from the MAE mean (footnote-7 rule).
        assert_eq!(s.mean_mae_policy_off, Some(0.1));
        assert_eq!(s.mean_mae_policy_on, Some(0.2));
        assert_eq!(s.mean_mae_observer, Some(0.15));
        // Hold and observer samples pool into the degraded fraction.
        assert_eq!(s.time_in_degraded_frac, 0.4);
        // Certificate census: drift rows stay out; the crashed off-arm
        // cell's margin past 1 is the worst.
        assert_eq!(s.certificate_cells, 4);
        assert_eq!(s.certified_cells, 3);
        assert_eq!(s.worst_certificate, Some(1.2));
        assert_eq!(s.drift_mae_static, Some(0.09));
        assert_eq!(s.drift_mae_tuned, Some(0.08));
        assert_eq!(
            s.drift_situations,
            vec![DriftSituationSummary {
                situation: DRIFT_SITUATIONS[0],
                mae_static: Some(0.09),
                mae_tuned: Some(0.08),
            }]
        );
    }

    #[test]
    fn blind_burst_comparison_is_lexicographic() {
        // Both arms of the pinned blind-burst cell present: the summary
        // reduces them to the head-to-head.
        let hold = mk(BLIND_BURST_PLAN_NAME, "hold", "static", true, 0.4, 50, None);
        let mut obs = mk(BLIND_BURST_PLAN_NAME, "observer", "static", false, 0.2, 40, None);
        obs.observer_coasts = 300;
        obs.observer_reacquisitions = 1;
        let s = summarize(&[hold.clone(), obs.clone()]);
        let burst = s.blind_burst.expect("both arms present");
        assert!(burst.hold_crashed && !burst.observer_crashed);
        assert!(burst.observer_beats_hold, "survival beats a crash");
        assert_eq!(burst.observer_coasts, 300);
        assert_eq!(burst.observer_reacquisitions, 1);
        // The axis stays out of the three-arm fault statistics.
        assert_eq!(s.runs_per_arm, 0);
        assert_eq!(s.certificate_cells, 0);
        // Both crash: longer survival wins; equal survival loses.
        let crash = |samples| {
            let mut e = mk(BLIND_BURST_PLAN_NAME, "observer", "static", true, 0.4, 0, None);
            e.samples = samples;
            e
        };
        let s = summarize(&[hold.clone(), crash(150)]);
        assert!(s.blind_burst.unwrap().observer_beats_hold);
        let s = summarize(&[hold.clone(), crash(100)]);
        assert!(!s.blind_burst.unwrap().observer_beats_hold);
        // Both survive: the observer must track at least as accurately.
        let survive_hold = mk(BLIND_BURST_PLAN_NAME, "hold", "static", false, 0.2, 50, None);
        let tie = mk(BLIND_BURST_PLAN_NAME, "observer", "static", false, 0.2, 40, None);
        assert!(summarize(&[survive_hold.clone(), tie]).blind_burst.unwrap().observer_beats_hold);
        let worse = mk(BLIND_BURST_PLAN_NAME, "observer", "static", false, 0.3, 40, None);
        assert!(!summarize(&[survive_hold, worse]).blind_burst.unwrap().observer_beats_hold);
        // A lone arm yields no comparison.
        assert!(summarize(&[hold]).blind_burst.is_none());
    }

    #[test]
    fn lane_half_width_matches_the_scene_geometry() {
        // The certificate normalizes against the control crate's lane
        // half-width constant; it must mirror the scene the campaign
        // actually drives.
        assert_eq!(lkas_control::LANE_HALF_WIDTH_M, lkas_scene::track::LANE_WIDTH / 2.0);
    }

    #[test]
    fn campaign_params_round_trip() {
        let cfg = CampaignConfig::new(11).with_quick(true).with_threads(3);
        // Shard artifacts keep their bytes: the same two fields, in order.
        assert_eq!(
            cfg.params(),
            Value::Object(vec![
                ("seed".to_string(), Value::U64(11)),
                ("quick".to_string(), Value::Bool(true)),
            ])
        );
        let back = config_from_params(&cfg.params()).unwrap();
        assert_eq!(back, CampaignConfig::new(11).with_quick(true));
        assert_eq!(back.fingerprint(), cfg.fingerprint());
        assert!(config_from_params(&Value::Null).is_err());
    }

    #[test]
    fn drift_axis_rides_at_the_end_of_the_grid() {
        let cfg = CampaignConfig::new(7).with_quick(true);
        let grid = cfg.grid();
        // 1 case × 4 plans × 3 degradation arms + 2 blind-burst arms +
        // 3 situations × 2 drift entries.
        assert_eq!(grid.len(), 20);
        let (burst_hold_key, burst_hold) = &grid[12];
        let (burst_obs_key, burst_obs) = &grid[13];
        assert!(burst_hold_key.contains("blind-burst|arm-hold"));
        assert!(burst_obs_key.contains("blind-burst|arm-observer"));
        assert!(matches!(burst_hold, CampaignJob::BlindBurst { arm: PolicyArm::Hold }));
        assert!(matches!(burst_obs, CampaignJob::BlindBurst { arm: PolicyArm::Observer }));
        for (offset, &situation) in DRIFT_SITUATIONS.iter().enumerate() {
            let (static_key, static_job) = &grid[14 + 2 * offset];
            let (tuned_key, tuned_job) = &grid[15 + 2 * offset];
            assert!(static_key.contains(&format!("sensor-drift|s{situation:02}|knobs-static")));
            assert!(tuned_key.contains(&format!("sensor-drift|s{situation:02}|knobs-tuned")));
            assert!(matches!(
                static_job,
                CampaignJob::Drift { situation: s, knobs: DriftKnobs::Static } if *s == situation
            ));
            assert!(matches!(
                tuned_job,
                CampaignJob::Drift { situation: s, knobs: DriftKnobs::Tuned { epsilon: None } }
                    if *s == situation
            ));
        }
    }
}
