//! Graceful degradation under perception faults.
//!
//! The paper's runtime adapts knobs to the *situation*; this module
//! adds the orthogonal safety layer: adapting to *sensing failure*.
//! Three mechanisms, all bounded and hysteretic:
//!
//! 1. **Hold-and-extrapolate** — when perception misses a cycle, the
//!    last good `y_L` is extrapolated with its (smoothed, slew-clamped)
//!    trend for up to `MISS_BUDGET` consecutive cycles, so
//!    the controller keeps a measurement instead of coasting its
//!    observer open-loop. Beyond the budget the hold is released (a
//!    stale extrapolation is worse than an honest miss).
//! 2. **Observer coasting** ([`CoastPolicy::ObserverCoast`]) — instead
//!    of releasing into a blind miss, the policy coasts on a
//!    steady-state Kalman [`LaneObserver`] of the chassis: the camera
//!    path is down but the gyro is a separate device, so the coast
//!    stays measurement-corrected in `(v_y, r)` while heading and
//!    offset integrate open-loop on the model. Returning measurements
//!    are *innovation-gated*: one that disagrees with the coasted
//!    estimate by more than `REACQUIRE_GATE_M` is rejected as a
//!    glitch, so a single wild frame cannot yank the loop sideways at
//!    the end of an outage.
//! 3. **Safe mode** — after `SAFE_MODE_AFTER` consecutive misses the
//!    loop falls back to a pre-characterized safe tuning: exact ISP
//!    (S0), the layout-appropriate coarse ROI, and reduced speed. It
//!    re-enters nominal operation only after `RECOVERY_HITS`
//!    consecutive good cycles — the hysteresis prevents mode chatter
//!    on a flaky sensor. Safe mode
//!    swaps the classifier set down to the road classifier alone, which
//!    shortens the sampling period and so shrinks the wall-clock length
//!    of any fixed-cycle outage.
//!
//! Under the legacy [`CoastPolicy::HoldAndExtrapolate`] (kept
//! selectable for A/B comparison — the robustness campaign runs both
//! arms), once the miss budget is exhausted the policy flags cycles as
//! blind ([`Observation::blind`]) and hands the controller an honest
//! miss: the LQR coasts on its open-loop observer estimate, completing
//! any in-flight lateral correction. Pinning a stale fake `y_L` for the
//! whole outage was tried and rejected — a constant fabricated lane
//! offset fed alongside the real gyro destabilizes the hybrid observer
//! update, which is worse than honest coasting. The observer coast
//! avoids that failure mode structurally: its substituted `y_L` is not
//! a stale constant but a model-propagated, gyro-corrected estimate
//! whose innovation against the controller's own prediction stays
//! small.

use crate::knobs::{coarse_roi_for, KnobTuning};
use lkas_control::errprofile::PerceptionErrorProfile;
use lkas_control::observer::LaneObserver;
use lkas_imaging::isp::IspConfig;
use lkas_scene::situation::RoadLayout;
use serde::{Deserialize, Serialize};

/// How the policy bridges perception outages beyond the hold budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoastPolicy {
    /// Legacy behavior: hold-and-extrapolate within the budget, then
    /// release into honest blind misses.
    #[default]
    HoldAndExtrapolate,
    /// Coast on the steady-state Kalman [`LaneObserver`]: held *and*
    /// blind cycles are bridged with the gyro-corrected model estimate,
    /// and re-acquisition is innovation-gated.
    ObserverCoast,
}

/// Re-acquisition override: after this many consecutive gated
/// rejections the next measurement is accepted unconditionally, so the
/// observer can re-acquire after a genuine jump (mirrors the
/// controller's own innovation gate).
const MAX_REACQUIRE_REJECTS: u32 = 8;

/// Maximum consecutive misses bridged by hold-and-extrapolate.
const MISS_BUDGET: u32 = 4;
/// Consecutive misses after which safe mode engages.
const SAFE_MODE_AFTER: u32 = 8;
/// Consecutive good measurements required to leave safe mode.
const RECOVERY_HITS: u32 = 12;
/// Speed commanded in safe mode (km/h).
const SAFE_SPEED_KMPH: f64 = 30.0;
/// Per-cycle slew bound on the extrapolated `y_L` trend (m).
const MAX_HOLD_SLEW_M: f64 = 0.05;
/// Smoothing factor of the trend estimate (exponential moving average
/// over per-cycle deltas, in (0, 1]). `y_L` measurement noise is of the
/// same order as a real per-cycle slope, so holds extrapolating the
/// *last* delta would feed the controller a noise-steered ramp —
/// smoothing keeps the hold honest.
const TREND_ALPHA: f64 = 0.25;
/// Geometric decay of the trend across consecutive held cycles, in
/// [0, 1). Bounds the total extrapolation of a budget-length hold to
/// `trend / (1 - TREND_DECAY)` even if the budget is raised.
const TREND_DECAY: f64 = 0.8;
/// Innovation gate on re-acquisition after an observer coast (m): a
/// returning measurement farther than this from the coasted estimate
/// is rejected as a perception glitch.
const REACQUIRE_GATE_M: f64 = 0.5;

/// Configuration of the degradation state machine: the one choice a
/// run makes is how outages beyond the hold budget are bridged. The
/// state machine's thresholds are the module constants above, and the
/// coasting observer is designed against
/// [`PerceptionErrorProfile::nominal`] (which sets how much a
/// re-acquired vision channel is trusted).
///
/// Construct with [`DegradationConfig::new`] (the [`Default`] baseline)
/// plus [`DegradationConfig::with_coast`]; the struct is
/// `#[non_exhaustive]`, so downstream crates go through the builder
/// surface (the field stays readable).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct DegradationConfig {
    /// Outage-bridging strategy beyond the hold budget.
    pub coast: CoastPolicy,
}

impl DegradationConfig {
    /// The default baseline (equivalent to `default()`).
    pub fn new() -> Self {
        DegradationConfig::default()
    }

    /// Replaces the coasting policy (builder style).
    pub fn with_coast(mut self, coast: CoastPolicy) -> Self {
        self.coast = coast;
        self
    }
}

/// Operating mode of the degradation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationMode {
    /// Perception is healthy; the situation-aware knobs rule.
    Nominal,
    /// Perception has been failing; the safe tuning rules.
    Degraded,
}

/// What the policy decided for one control cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The measurement handed to the controller: the real one, a held
    /// extrapolation / observer estimate, or `None` once the miss
    /// budget is exhausted under the legacy hold policy.
    pub y_l: Option<f64>,
    /// `true` if `y_l` is a within-budget bridge (extrapolated hold or
    /// observer estimate), not a real measurement.
    pub held: bool,
    /// `true` if the cycle is fully blind (a miss past the budget that
    /// nothing bridges): the controller sees an honest miss and coasts
    /// on its open-loop observer estimate. Never set under
    /// [`CoastPolicy::ObserverCoast`] while the observer is live.
    pub blind: bool,
    /// `true` if `y_l` is the coasting observer's estimate for a miss
    /// past the hold budget (the observer-coast replacement for a blind
    /// cycle), or for a gated (rejected) measurement.
    pub coasted: bool,
    /// `true` if this cycle re-acquired vision after an observer coast
    /// (the returning measurement passed the innovation gate).
    pub reacquired: bool,
    /// `true` if this cycle entered safe mode.
    pub entered: bool,
    /// `true` if this cycle exited safe mode.
    pub exited: bool,
}

impl Observation {
    fn pass(y_l: Option<f64>, held: bool, blind: bool, entered: bool, exited: bool) -> Self {
        Observation { y_l, held, blind, coasted: false, reacquired: false, entered, exited }
    }
}

/// Plant-side context the observer coast needs each cycle: what the
/// controller commanded and what the inertial sensors read. The legacy
/// hold policy ignores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoastInput {
    /// The steering command applied over the elapsed period (rad).
    pub steering: f64,
    /// Gyro yaw rate (rad/s) — a separate device from the camera, so
    /// it survives perception outages.
    pub yaw_rate: f64,
    /// Current commanded speed (km/h); the observer redesigns when it
    /// crosses a design-point boundary.
    pub speed_kmph: f64,
    /// Current sampling period (ms).
    pub h_ms: f64,
}

/// The per-run degradation state machine. Feed it every perception
/// outcome via [`DegradationPolicy::observe_with`]; read the mode and
/// the substituted measurement back.
#[derive(Debug, Clone)]
pub struct DegradationPolicy {
    config: DegradationConfig,
    mode: DegradationMode,
    consecutive_misses: u32,
    consecutive_hits: u32,
    last_y: Option<f64>,
    trend: f64,
    /// `true` once the observer coast has bridged a past-budget miss;
    /// cleared by a gated re-acquisition.
    coasting: bool,
    /// Consecutive gated rejections while re-acquiring.
    rejects: u32,
    observer: Option<LaneObserver>,
}

impl DegradationPolicy {
    /// A policy in nominal mode with no measurement history.
    pub fn new(config: DegradationConfig) -> Self {
        DegradationPolicy {
            config,
            mode: DegradationMode::Nominal,
            consecutive_misses: 0,
            consecutive_hits: 0,
            last_y: None,
            trend: 0.0,
            coasting: false,
            rejects: 0,
            observer: None,
        }
    }

    /// `true` while safe mode is engaged.
    pub fn is_degraded(&self) -> bool {
        self.mode == DegradationMode::Degraded
    }

    /// The safe fallback tuning for the current layout estimate: exact
    /// ISP, the widest layout-appropriate coarse ROI, reduced speed.
    pub fn safe_tuning(&self, layout: RoadLayout) -> KnobTuning {
        KnobTuning::new(IspConfig::S0, coarse_roi_for(layout), SAFE_SPEED_KMPH)
    }

    /// Feeds one perception outcome through the state machine and
    /// returns the measurement the controller should see plus any mode
    /// transition that fired. The plant-side context lets
    /// [`CoastPolicy::ObserverCoast`] run its Kalman coast; under the
    /// legacy [`CoastPolicy::HoldAndExtrapolate`] the input is ignored.
    pub fn observe_with(&mut self, measured: Option<f64>, input: &CoastInput) -> Observation {
        match self.config.coast {
            CoastPolicy::HoldAndExtrapolate => self.observe_hold(measured),
            CoastPolicy::ObserverCoast => self.observe_coast(measured, input),
        }
    }

    /// The legacy hold-and-extrapolate state machine.
    fn observe_hold(&mut self, measured: Option<f64>) -> Observation {
        match measured {
            Some(y) => {
                self.absorb_hit(y);
                let exited = self.mark_hit();
                Observation::pass(Some(y), false, false, false, exited)
            }
            None => {
                let entered = self.mark_miss();
                // The hold only bridges short glitches: past the budget
                // an honest miss beats an ever-staler extrapolation.
                if self.consecutive_misses <= MISS_BUDGET {
                    if let Some(prev) = self.last_y {
                        let held = prev + self.trend;
                        self.trend *= TREND_DECAY;
                        self.last_y = Some(held);
                        return Observation::pass(Some(held), true, false, entered, false);
                    }
                }
                Observation::pass(None, false, true, entered, false)
            }
        }
    }

    /// The observer-coast state machine: the Kalman estimate bridges
    /// every miss, and re-acquisition is innovation-gated.
    fn observe_coast(&mut self, measured: Option<f64>, input: &CoastInput) -> Observation {
        self.ensure_observer(input);
        let Some(mut observer) = self.observer.take() else {
            // Observer design failed (off the model's speed envelope):
            // degrade gracefully to the legacy hold machine.
            return self.observe_hold(measured);
        };
        let obs = match measured {
            Some(y) => {
                let gated = self.coasting
                    && observer.innovation(y).abs() > REACQUIRE_GATE_M
                    && self.rejects < MAX_REACQUIRE_REJECTS;
                if gated {
                    // A returning frame that disagrees wildly with the
                    // coasted estimate: reject it as a glitch and keep
                    // coasting — the stale-hold destabilization this
                    // module documents is exactly what an ungated
                    // accept reproduces.
                    self.rejects += 1;
                    observer.step(input.steering, None, input.yaw_rate);
                    let entered = self.mark_miss();
                    Observation {
                        y_l: Some(observer.y_l_estimate()),
                        held: false,
                        blind: false,
                        coasted: true,
                        reacquired: false,
                        entered,
                        exited: false,
                    }
                } else {
                    let reacquired = self.coasting;
                    if reacquired {
                        // Snap the measurable channels before trusting
                        // the innovation again.
                        observer.rebase(y, input.yaw_rate);
                    }
                    self.coasting = false;
                    self.rejects = 0;
                    observer.step(input.steering, Some(y), input.yaw_rate);
                    self.absorb_hit(y);
                    let exited = self.mark_hit();
                    Observation {
                        y_l: Some(y),
                        held: false,
                        blind: false,
                        coasted: false,
                        reacquired,
                        entered: false,
                        exited,
                    }
                }
            }
            None => {
                observer.step(input.steering, None, input.yaw_rate);
                let entered = self.mark_miss();
                let estimate = observer.y_l_estimate();
                let within_budget = self.consecutive_misses <= MISS_BUDGET;
                if !within_budget {
                    self.coasting = true;
                }
                // Keep the hold trend bookkeeping alive so a fallback
                // to the legacy machine (observer redesign failure)
                // stays coherent.
                self.last_y = Some(estimate);
                Observation {
                    y_l: Some(estimate),
                    held: within_budget && self.last_y.is_some(),
                    blind: false,
                    coasted: !within_budget,
                    reacquired: false,
                    entered,
                    exited: false,
                }
            }
        };
        self.observer = Some(observer);
        obs
    }

    /// Lazily (re)designs the observer for the current operating
    /// point. Redesigns only when the quantized `(speed, h)` point
    /// moves — a Riccati solve per knob switch, not per cycle.
    fn ensure_observer(&mut self, input: &CoastInput) {
        let stale = match &self.observer {
            Some(observer) => {
                let (speed, h) = observer.operating_point();
                (speed - input.speed_kmph).abs() > 0.05 || (h - input.h_ms).abs() > 1e-3
            }
            None => true,
        };
        if stale {
            let previous = self.observer.take();
            self.observer = LaneObserver::design(
                input.speed_kmph,
                input.h_ms,
                &PerceptionErrorProfile::nominal(),
            )
            .ok()
            .map(|mut observer| {
                // Carry the estimate across the redesign; at a
                // knob switch the plant state does not jump.
                if let Some(previous) = previous {
                    observer.rebase(previous.y_l_estimate(), input.yaw_rate);
                } else if let Some(y) = self.last_y {
                    observer.rebase(y, input.yaw_rate);
                }
                observer
            });
        }
    }

    /// Shared hit bookkeeping: trend update and history.
    fn absorb_hit(&mut self, y: f64) {
        let delta = match self.last_y {
            Some(prev) => (y - prev).clamp(-MAX_HOLD_SLEW_M, MAX_HOLD_SLEW_M),
            None => 0.0,
        };
        self.trend += TREND_ALPHA * (delta - self.trend);
        self.last_y = Some(y);
    }

    /// Shared hit transition: returns `true` when safe mode exits.
    fn mark_hit(&mut self) -> bool {
        self.consecutive_misses = 0;
        self.consecutive_hits += 1;
        if self.mode == DegradationMode::Degraded && self.consecutive_hits >= RECOVERY_HITS {
            self.mode = DegradationMode::Nominal;
            return true;
        }
        false
    }

    /// Shared miss transition: returns `true` when safe mode enters.
    fn mark_miss(&mut self) -> bool {
        self.consecutive_misses += 1;
        self.consecutive_hits = 0;
        if self.mode == DegradationMode::Nominal && self.consecutive_misses >= SAFE_MODE_AFTER {
            self.mode = DegradationMode::Degraded;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DegradationPolicy {
        DegradationPolicy::new(DegradationConfig::default())
    }

    fn coast_policy() -> DegradationPolicy {
        DegradationPolicy::new(DegradationConfig::new().with_coast(CoastPolicy::ObserverCoast))
    }

    fn input() -> CoastInput {
        CoastInput { steering: 0.0, yaw_rate: 0.0, speed_kmph: 50.0, h_ms: 25.0 }
    }

    #[test]
    fn healthy_measurements_pass_through() {
        let mut p = policy();
        for i in 0..20 {
            let obs = p.observe_hold(Some(0.01 * f64::from(i)));
            assert!(!obs.held && !obs.entered && !obs.exited);
            assert_eq!(obs.y_l, Some(0.01 * f64::from(i)));
        }
        assert_eq!(p.mode, DegradationMode::Nominal);
    }

    #[test]
    fn holds_extrapolate_within_budget_then_release() {
        let mut p = policy();
        p.observe_hold(Some(0.10));
        p.observe_hold(Some(0.12)); // delta = +0.02, trend = alpha * 0.02
        let mut trend = TREND_ALPHA * 0.02;
        let mut expected = 0.12;
        for k in 0..MISS_BUDGET {
            let obs = p.observe_hold(None);
            expected += trend;
            trend *= TREND_DECAY;
            assert!(obs.held, "miss {k} within budget is held");
            assert!((obs.y_l.unwrap() - expected).abs() < 1e-12);
        }
        // Budget exhausted: the hold releases and the cycle goes blind.
        let obs = p.observe_hold(None);
        assert!(!obs.held);
        assert!(obs.blind);
        assert_eq!(obs.y_l, None);
    }

    #[test]
    fn hold_trend_is_slew_clamped_and_smoothed() {
        let mut p = policy();
        p.observe_hold(Some(0.0));
        p.observe_hold(Some(1.0)); // raw jump 1.0 m ≫ slew bound
        let obs = p.observe_hold(None);
        // The per-cycle delta clamps to the slew bound, and the trend
        // only absorbs the smoothing fraction of it — a single noisy
        // jump cannot steer the hold by the full bound.
        let trend = TREND_ALPHA * MAX_HOLD_SLEW_M;
        assert!((obs.y_l.unwrap() - (1.0 + trend)).abs() < 1e-12, "expected trend {trend}");
    }

    #[test]
    fn safe_mode_entry_after_k_misses() {
        let mut p = policy();
        p.observe_hold(Some(0.0));
        for k in 1..SAFE_MODE_AFTER {
            let obs = p.observe_hold(None);
            assert!(!obs.entered, "miss {k} must not yet trip safe mode");
            assert_eq!(p.mode, DegradationMode::Nominal);
        }
        let obs = p.observe_hold(None);
        assert!(obs.entered, "miss {} trips safe mode", SAFE_MODE_AFTER);
        assert!(p.is_degraded());
        // Entry fires once, not every subsequent miss.
        assert!(!p.observe_hold(None).entered);
    }

    #[test]
    fn recovery_requires_hysteresis() {
        let mut p = policy();
        for _ in 0..SAFE_MODE_AFTER {
            p.observe_hold(None);
        }
        assert!(p.is_degraded());
        // A lone good frame (then another miss) must not exit.
        p.observe_hold(Some(0.0));
        p.observe_hold(None);
        assert!(p.is_degraded(), "one hit is not recovery");
        // A full run of RECOVERY_HITS consecutive hits exits exactly once.
        let mut exits = 0;
        for _ in 0..RECOVERY_HITS {
            if p.observe_hold(Some(0.0)).exited {
                exits += 1;
            }
        }
        assert_eq!(exits, 1);
        assert_eq!(p.mode, DegradationMode::Nominal);
    }

    #[test]
    fn safe_tuning_is_exact_isp_coarse_roi_slow() {
        let p = policy();
        let t = p.safe_tuning(RoadLayout::RightTurn);
        assert_eq!(t.isp, IspConfig::S0);
        assert_eq!(t.roi, lkas_perception::roi::Roi::Roi2);
        assert_eq!(t.speed_kmph, 30.0);
        assert_eq!(p.safe_tuning(RoadLayout::Straight).roi, lkas_perception::roi::Roi::Roi1);
    }

    #[test]
    fn no_history_means_no_hold() {
        let mut p = policy();
        let obs = p.observe_hold(None);
        assert_eq!(obs.y_l, None);
        assert!(!obs.held);
        assert!(obs.blind);
    }

    #[test]
    fn long_outages_go_blind_even_in_safe_mode() {
        let mut p = policy();
        p.observe_hold(Some(0.10));
        p.observe_hold(Some(0.12));
        // Misses past the budget go blind, before and after safe-mode
        // entry: a fabricated constant `y_L` fed alongside the real
        // gyro destabilizes the observer, so the policy never pins one.
        let mut entered_at = None;
        for k in 1..=SAFE_MODE_AFTER {
            let obs = p.observe_hold(None);
            if obs.entered {
                entered_at = Some(k);
            }
            if k > MISS_BUDGET {
                assert!(obs.blind && obs.y_l.is_none(), "miss {k} past budget is blind");
            }
        }
        assert_eq!(entered_at, Some(SAFE_MODE_AFTER));
        for k in 0..100 {
            let obs = p.observe_hold(None);
            assert!(obs.blind && !obs.held, "safe-mode miss {k} stays blind");
        }
        assert!(p.is_degraded());
    }

    #[test]
    fn held_cycles_are_not_blind() {
        let mut p = policy();
        p.observe_hold(Some(0.1));
        let obs = p.observe_hold(None);
        assert!(obs.held && !obs.blind);
        assert!(!p.observe_hold(Some(0.1)).blind);
    }

    #[test]
    fn observe_with_is_the_hold_machine_under_the_legacy_arm() {
        // The baseline keeps the legacy arm.
        assert_eq!(DegradationConfig::new().coast, CoastPolicy::HoldAndExtrapolate);
        let mut legacy = policy();
        let mut with_input = policy();
        let stream = [Some(0.1), Some(0.12), None, None, None, None, None, Some(0.2), None];
        for measured in stream {
            assert_eq!(legacy.observe_hold(measured), with_input.observe_with(measured, &input()));
        }
    }

    #[test]
    fn observer_coast_bridges_past_the_hold_budget() {
        let mut p = coast_policy();
        // Converge the observer on a steady offset.
        for _ in 0..50 {
            p.observe_with(Some(0.2), &input());
        }
        for k in 1..=MISS_BUDGET {
            let obs = p.observe_with(None, &input());
            assert!(obs.held && !obs.coasted && !obs.blind, "miss {k} within budget is held");
            assert!(obs.y_l.is_some());
        }
        // Past the budget the estimate keeps flowing: coasted, never
        // blind.
        for k in 0..40 {
            let obs = p.observe_with(None, &input());
            assert!(obs.coasted && !obs.blind && !obs.held, "coast cycle {k}");
            let y = obs.y_l.expect("coast estimate");
            assert!(y.is_finite() && y.abs() < 1.0, "coast estimate stays sane, got {y}");
        }
        assert!(p.is_degraded(), "safe-mode bookkeeping still runs under the coast");
    }

    #[test]
    fn reacquisition_is_innovation_gated() {
        let mut p = coast_policy();
        for _ in 0..50 {
            p.observe_with(Some(0.2), &input());
        }
        for _ in 0..10 {
            p.observe_with(None, &input());
        }
        // A wild returning frame (2 m off the coasted estimate — a lane
        // mis-association) is rejected: the cycle stays a coast.
        let wild = p.observe_with(Some(2.2), &input());
        assert!(wild.coasted && !wild.reacquired, "wild frame must be gated");
        assert!((wild.y_l.unwrap() - 0.2).abs() < 0.2, "estimate must not jump");
        // A consistent frame re-acquires.
        let good = p.observe_with(Some(0.21), &input());
        assert!(good.reacquired && !good.coasted);
        assert_eq!(good.y_l, Some(0.21));
        // Once re-acquired, ordinary hits are ordinary.
        let next = p.observe_with(Some(0.22), &input());
        assert!(!next.reacquired && !next.coasted);
    }

    #[test]
    fn persistent_jump_overrides_the_gate() {
        // If the lane genuinely jumped (the wild value persists), the
        // gate must not starve the loop forever: after
        // MAX_REACQUIRE_REJECTS rejections the next frame is accepted.
        let mut p = coast_policy();
        for _ in 0..50 {
            p.observe_with(Some(0.2), &input());
        }
        for _ in 0..10 {
            p.observe_with(None, &input());
        }
        let mut reacquired_after = None;
        for k in 0..=MAX_REACQUIRE_REJECTS + 1 {
            let obs = p.observe_with(Some(2.0), &input());
            if obs.reacquired {
                reacquired_after = Some(k);
                break;
            }
        }
        assert_eq!(reacquired_after, Some(MAX_REACQUIRE_REJECTS), "gate must eventually yield");
    }

    #[test]
    fn gated_rejection_mirrors_the_stale_hold_lesson() {
        // The destabilization documented above: a stale constant pinned
        // against a moving plant. Under the observer coast the
        // equivalent attack (a wild constant fed at re-acquisition)
        // never reaches the controller — every gated cycle hands back
        // the model estimate instead.
        let mut p = coast_policy();
        for _ in 0..50 {
            p.observe_with(Some(0.0), &input());
        }
        for _ in 0..10 {
            p.observe_with(None, &input());
        }
        for _ in 0..MAX_REACQUIRE_REJECTS as usize - 1 {
            let obs = p.observe_with(Some(1.5), &input());
            assert!(obs.coasted, "stale constant is rejected");
            assert!(obs.y_l.unwrap().abs() < 0.5, "controller never sees the 1.5 m fake");
        }
    }

    #[test]
    fn observer_redesigns_across_speed_changes() {
        let mut p = coast_policy();
        for _ in 0..20 {
            p.observe_with(Some(0.1), &input());
        }
        // Knob switch to 30 km/h: the estimate must survive the
        // redesign (no reset-to-zero glitch).
        let slow = CoastInput { speed_kmph: 30.0, ..input() };
        let obs = p.observe_with(None, &slow);
        assert!(obs.y_l.is_some());
        assert!((obs.y_l.unwrap() - 0.1).abs() < 0.05, "estimate survives the redesign");
    }
}
