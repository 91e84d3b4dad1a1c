//! Pipeline schedule: from a knob setting to `(τ, h, FPS, power)`.
//!
//! The LKAS pipeline executes sequentially within a sampling period
//! (Fig. 4(b)): ISP → classifiers → PR → control. The sensor-to-actuation
//! delay is the sum of the stage runtimes (plus a small frame overhead),
//! and the sampling period is that delay ceiled to the Webots simulation
//! step (paper footnote 5).

use crate::profiles::{ClassifierKind, TaskKind, FRAME_OVERHEAD_MS};
use crate::resources::XavierPlatform;
use crate::SIM_STEP_MS;
use lkas_imaging::isp::IspConfig;
use serde::{Deserialize, Serialize};

/// Which classifiers run in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClassifierSet {
    /// Road classifier active.
    pub road: bool,
    /// Lane classifier active.
    pub lane: bool,
    /// Scene classifier active.
    pub scene: bool,
}

impl ClassifierSet {
    /// No classifiers (Case 1 of Table V).
    pub fn none() -> Self {
        ClassifierSet { road: false, lane: false, scene: false }
    }

    /// Road classifier only (Case 2).
    pub fn road_only() -> Self {
        ClassifierSet { road: true, lane: false, scene: false }
    }

    /// Road + lane classifiers (Case 3).
    pub fn road_lane() -> Self {
        ClassifierSet { road: true, lane: true, scene: false }
    }

    /// All three classifiers (Case 4).
    pub fn all() -> Self {
        ClassifierSet { road: true, lane: true, scene: true }
    }

    /// Exactly one classifier (the Sec. IV-E variable invocation scheme
    /// runs one classifier per frame).
    pub fn single(kind: ClassifierKind) -> Self {
        match kind {
            ClassifierKind::Road => ClassifierSet { road: true, lane: false, scene: false },
            ClassifierKind::Lane => ClassifierSet { road: false, lane: true, scene: false },
            ClassifierKind::Scene => ClassifierSet { road: false, lane: false, scene: true },
        }
    }

    /// Number of active classifiers.
    pub fn count(&self) -> usize {
        self.road as usize + self.lane as usize + self.scene as usize
    }
}

/// Timing numbers derived from a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingProfile {
    /// Worst-case sensor-to-actuation delay (ms).
    pub tau_ms: f64,
    /// Sampling period (ms), a multiple of the 5 ms simulation step.
    pub h_ms: f64,
    /// Achievable processing rate (frames per second), bounded by the
    /// 200 FPS camera.
    pub fps: f64,
    /// Estimated average power draw (W).
    pub power_w: f64,
}

/// A per-frame LKAS pipeline schedule on the Xavier.
///
/// # Example
///
/// ```
/// use lkas_platform::schedule::{ClassifierSet, LkasSchedule};
/// use lkas_imaging::isp::IspConfig;
///
/// // Case 3 of Table V: full ISP + road + lane classifiers.
/// let sched = LkasSchedule::new(IspConfig::S0, ClassifierSet::road_lane());
/// let t = sched.timing();
/// assert!((t.tau_ms - 35.6).abs() < 0.2);
/// assert_eq!(t.h_ms, 40.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LkasSchedule {
    isp: IspConfig,
    classifiers: ClassifierSet,
}

/// Camera frame rate in the HiL setup (Sec. IV-A).
pub const CAMERA_FPS: f64 = 200.0;

impl LkasSchedule {
    /// Creates a schedule for an ISP configuration and classifier set.
    pub fn new(isp: IspConfig, classifiers: ClassifierSet) -> Self {
        LkasSchedule { isp, classifiers }
    }

    /// The task chain executed each sampling period, in order.
    pub fn tasks(&self) -> Vec<TaskKind> {
        let mut tasks = vec![TaskKind::Isp(self.isp)];
        if self.classifiers.road {
            tasks.push(TaskKind::Classifier(ClassifierKind::Road));
        }
        if self.classifiers.lane {
            tasks.push(TaskKind::Classifier(ClassifierKind::Lane));
        }
        if self.classifiers.scene {
            tasks.push(TaskKind::Classifier(ClassifierKind::Scene));
        }
        tasks.push(TaskKind::Perception);
        tasks.push(TaskKind::Control);
        tasks
    }

    /// Worst-case sensor-to-actuation delay (ms): the sequential sum of
    /// the stage runtimes plus the frame overhead.
    pub fn tau_ms(&self) -> f64 {
        self.tasks().iter().map(|t| t.runtime_ms()).sum::<f64>() + FRAME_OVERHEAD_MS
    }

    /// Sampling period (ms): `τ` ceiled to the next multiple of the 5 ms
    /// simulation step (paper footnote 5).
    pub fn h_ms(&self) -> f64 {
        (self.tau_ms() / SIM_STEP_MS).ceil() * SIM_STEP_MS
    }

    /// Full timing profile, including the power estimate on the default
    /// 30 W Xavier.
    pub fn timing(&self) -> TimingProfile {
        self.timing_on(&XavierPlatform::agx_30w())
    }

    /// Timing profile with the power estimate on a specific platform.
    pub fn timing_on(&self, platform: &XavierPlatform) -> TimingProfile {
        let tau = self.tau_ms();
        let h = self.h_ms();
        let fps = (1000.0 / tau).min(CAMERA_FPS);
        // Utilizations: fraction of the period each resource is busy.
        let gpu_ms: f64 = self
            .tasks()
            .iter()
            .filter(|t| matches!(t.mapping(), crate::resources::ProcessingResource::VoltaGpu))
            .map(|t| t.runtime_ms())
            .sum();
        let cpu_ms: f64 = self
            .tasks()
            .iter()
            .filter(|t| {
                matches!(t.mapping(), crate::resources::ProcessingResource::CarmelCpu { .. })
            })
            .map(|t| t.runtime_ms())
            .sum();
        let power = platform.average_power_w((gpu_ms / h).min(1.0), (cpu_ms / h).min(1.0), 2);
        TimingProfile { tau_ms: tau, h_ms: h, fps, power_w: power }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_case_timings() {
        // Case 1: S0, no classifiers → τ = 24.6, h = 25 (Table V).
        let t1 = LkasSchedule::new(IspConfig::S0, ClassifierSet::none()).timing();
        assert!((t1.tau_ms - 24.6).abs() < 0.2, "case 1 τ = {}", t1.tau_ms);
        assert_eq!(t1.h_ms, 25.0);
        // Case 2: + road classifier → τ = 30.1, h = 35.
        let t2 = LkasSchedule::new(IspConfig::S0, ClassifierSet::road_only()).timing();
        assert!((t2.tau_ms - 30.1).abs() < 0.2, "case 2 τ = {}", t2.tau_ms);
        assert_eq!(t2.h_ms, 35.0);
        // Case 3: + lane classifier → τ = 35.6, h = 40.
        let t3 = LkasSchedule::new(IspConfig::S0, ClassifierSet::road_lane()).timing();
        assert!((t3.tau_ms - 35.6).abs() < 0.2, "case 3 τ = {}", t3.tau_ms);
        assert_eq!(t3.h_ms, 40.0);
    }

    #[test]
    fn table3_situation_timings() {
        // Situation 1: S3 + all three classifiers → τ ≈ 23.1, h = 25.
        let t = LkasSchedule::new(IspConfig::S3, ClassifierSet::all()).timing();
        assert!((t.tau_ms - 23.1).abs() < 0.4, "τ = {}", t.tau_ms);
        assert_eq!(t.h_ms, 25.0);
        // Situations 19/20: S2 + all three → τ ≈ 40.7, h = 45.
        let t = LkasSchedule::new(IspConfig::S2, ClassifierSet::all()).timing();
        assert!((t.tau_ms - 40.7).abs() < 0.4, "τ = {}", t.tau_ms);
        assert_eq!(t.h_ms, 45.0);
    }

    #[test]
    fn sliding_window_reaches_40fps() {
        // Fig. 1: the sliding-window pipeline (full ISP + PR, no
        // classifiers) reaches ≈ 40 FPS on the Xavier.
        let t = LkasSchedule::new(IspConfig::S0, ClassifierSet::none()).timing();
        assert!(t.fps > 39.0 && t.fps < 42.0, "fps = {}", t.fps);
    }

    #[test]
    fn variable_scheme_single_classifier_timing() {
        use crate::profiles::ClassifierKind;
        let t =
            LkasSchedule::new(IspConfig::S0, ClassifierSet::single(ClassifierKind::Road)).timing();
        assert_eq!(ClassifierSet::single(ClassifierKind::Road).count(), 1);
        assert!((t.tau_ms - 30.1).abs() < 0.2);
    }

    #[test]
    fn h_is_multiple_of_sim_step() {
        for isp in IspConfig::ALL {
            for set in [ClassifierSet::none(), ClassifierSet::road_lane(), ClassifierSet::all()] {
                let t = LkasSchedule::new(isp, set).timing();
                let ratio = t.h_ms / SIM_STEP_MS;
                assert!((ratio - ratio.round()).abs() < 1e-9);
                assert!(t.h_ms >= t.tau_ms, "h must cover τ");
            }
        }
    }

    #[test]
    fn all_schedules_fit_power_budget() {
        let platform = XavierPlatform::agx_30w();
        for isp in IspConfig::ALL {
            let t = LkasSchedule::new(isp, ClassifierSet::all()).timing_on(&platform);
            assert!(t.power_w <= platform.power_budget_w(), "{isp}: {} W", t.power_w);
        }
    }

    #[test]
    fn task_chain_order() {
        let s = LkasSchedule::new(IspConfig::S4, ClassifierSet::road_lane());
        let tasks = s.tasks();
        assert!(matches!(tasks[0], TaskKind::Isp(IspConfig::S4)));
        assert!(matches!(tasks.last(), Some(TaskKind::Control)));
        assert_eq!(tasks.len(), 5); // ISP + 2 classifiers + PR + control
    }
}
