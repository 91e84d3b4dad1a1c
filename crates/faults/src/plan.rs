//! The seed-driven fault-plan DSL.
//!
//! A [`FaultPlan`] is a named list of [`FaultWindow`]s — "fault *kind*
//! over cycles `[start, start+len)`" — plus the seed that parameterizes
//! any stochastic corruption inside those windows. Plans are built
//! explicitly through the builder methods (`drop_burst`, `hot_pixels`,
//! …) or generated wholesale from a seed with [`FaultPlan::random`];
//! either way the resulting schedule is a pure value: serializable,
//! comparable, and replayable bit-for-bit.

use crate::inject::BayerFaultKind;
use lkas_scene::situation::SituationFeatures;
use lkas_vehicle::ActuatorFault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Schema tag written into serialized fault plans and campaign reports.
pub const FAULT_PLAN_SCHEMA: &str = "lkas-fault-plan-v1";

/// How a classifier-misprediction fault picks the wrong situation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Misprediction {
    /// Derive a wrong-but-plausible situation from the ground truth at
    /// injection time (via `lkas_nn::classifiers::confuse_situation`).
    Confuse,
    /// Force this exact situation.
    Force(SituationFeatures),
}

/// An injectable steering-actuation failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActuationFault {
    /// The wheel freezes at its current angle.
    Stuck,
    /// The actuator responds at `response_scale` of its nominal rate.
    Lagged {
        /// Remaining fraction of nominal responsiveness ∈ (0, 1].
        response_scale: f64,
    },
}

impl ActuationFault {
    /// The `lkas-vehicle` actuator failure this plan entry maps to.
    pub fn to_actuator(self) -> ActuatorFault {
        match self {
            ActuationFault::Stuck => ActuatorFault::Stuck,
            ActuationFault::Lagged { response_scale } => ActuatorFault::Sluggish { response_scale },
        }
    }
}

/// One injectable fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The camera frame never arrives this cycle.
    FrameDrop,
    /// The RAW frame is corrupted before the ISP.
    Bayer(BayerFaultKind),
    /// The situation estimate is overridden with a wrong value.
    Misclassify(Misprediction),
    /// Actuation lands `extra_ms` after the designed delay `τ`.
    PerceptionTimeout {
        /// Additional sensor-to-actuator delay (ms).
        extra_ms: f64,
    },
    /// The steering actuator misbehaves.
    Actuation(ActuationFault),
}

/// A fault active over a contiguous cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First affected control cycle (frame index).
    pub start_cycle: u64,
    /// Number of affected cycles.
    pub cycles: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// `true` if `cycle` falls inside this window.
    pub fn contains(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle && cycle < self.start_cycle.saturating_add(self.cycles)
    }
}

/// Everything that is wrong in one control cycle — the aggregated view
/// the HiL simulator consumes. Later windows win where two windows of
/// the same class overlap; timeout delays accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleFaults {
    /// The camera frame is dropped.
    pub drop_frame: bool,
    /// RAW-domain corruption to apply.
    pub bayer: Option<BayerFaultKind>,
    /// Situation-estimate override.
    pub mispredict: Option<Misprediction>,
    /// Extra actuation delay beyond the designed `τ` (ms).
    pub extra_delay_ms: f64,
    /// Actuator failure in effect.
    pub actuation: Option<ActuationFault>,
}

impl CycleFaults {
    /// `true` if any fault is active this cycle.
    pub fn any(&self) -> bool {
        self.drop_frame
            || self.bayer.is_some()
            || self.mispredict.is_some()
            || self.extra_delay_ms > 0.0
            || self.actuation.is_some()
    }

    /// Stable labels of the active faults, for trace instant events.
    /// Order matches the field order, so traces of the same plan are
    /// reproducible.
    pub fn trace_labels(&self) -> Vec<&'static str> {
        let mut labels = Vec::new();
        if self.drop_frame {
            labels.push("fault:frame_drop");
        }
        if self.bayer.is_some() {
            labels.push("fault:bayer");
        }
        if self.mispredict.is_some() {
            labels.push("fault:mispredict");
        }
        if self.extra_delay_ms > 0.0 {
            labels.push("fault:deadline_overrun");
        }
        if self.actuation.is_some() {
            labels.push("fault:actuation");
        }
        labels
    }
}

/// A deterministic fault campaign over one HiL run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Human-readable campaign name (used in robustness reports).
    pub name: String,
    /// Seed for the stochastic content of the windows (hot-pixel
    /// placement, random plan generation).
    pub seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty (fault-free) plan — useful as an explicit baseline.
    pub fn named(name: impl Into<String>, seed: u64) -> Self {
        FaultPlan { name: name.into(), seed, windows: Vec::new() }
    }

    /// Adds an arbitrary fault window (the generic DSL entry point).
    pub fn with_window(mut self, start_cycle: u64, cycles: u64, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { start_cycle, cycles, kind });
        self
    }

    /// Drops every camera frame in `[start, start+len)`.
    pub fn drop_burst(self, start_cycle: u64, cycles: u64) -> Self {
        self.with_window(start_cycle, cycles, FaultKind::FrameDrop)
    }

    /// Saturates a `density` fraction of photosites per affected frame.
    pub fn hot_pixels(self, start_cycle: u64, cycles: u64, density: f32) -> Self {
        self.with_window(
            start_cycle,
            cycles,
            FaultKind::Bayer(BayerFaultKind::HotPixels { density }),
        )
    }

    /// Scales every `period`-th RAW row by `gain`.
    pub fn row_banding(self, start_cycle: u64, cycles: u64, period: usize, gain: f32) -> Self {
        self.with_window(
            start_cycle,
            cycles,
            FaultKind::Bayer(BayerFaultKind::RowBanding { period, gain }),
        )
    }

    /// Multiplies the RAW frame exposure by `gain`.
    pub fn exposure_glitch(self, start_cycle: u64, cycles: u64, gain: f32) -> Self {
        self.with_window(
            start_cycle,
            cycles,
            FaultKind::Bayer(BayerFaultKind::ExposureGlitch { gain }),
        )
    }

    /// Forces a wrong situation estimate (derived from the truth at
    /// injection time) for the affected cycles.
    pub fn misclassify(self, start_cycle: u64, cycles: u64) -> Self {
        self.with_window(start_cycle, cycles, FaultKind::Misclassify(Misprediction::Confuse))
    }

    /// Inflates the sensor-to-actuator delay by `extra_ms` past the
    /// designed `τ` for the affected cycles.
    pub fn deadline_overrun(self, start_cycle: u64, cycles: u64, extra_ms: f64) -> Self {
        self.with_window(start_cycle, cycles, FaultKind::PerceptionTimeout { extra_ms })
    }

    /// Freezes the steering actuator for the affected cycles.
    pub fn actuation_stuck(self, start_cycle: u64, cycles: u64) -> Self {
        self.with_window(start_cycle, cycles, FaultKind::Actuation(ActuationFault::Stuck))
    }

    /// Slows the steering actuator to `response_scale` of nominal for
    /// the affected cycles.
    pub fn actuation_lagged(self, start_cycle: u64, cycles: u64, response_scale: f64) -> Self {
        self.with_window(
            start_cycle,
            cycles,
            FaultKind::Actuation(ActuationFault::Lagged { response_scale }),
        )
    }

    /// Generates a random mixed campaign: `bursts` fault windows of all
    /// five classes scattered over `[0, horizon_cycles)`. A pure
    /// function of `(name, seed, horizon_cycles, bursts)` — the same
    /// arguments always produce the identical schedule.
    pub fn random(name: impl Into<String>, seed: u64, horizon_cycles: u64, bursts: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_17);
        let mut plan = FaultPlan::named(name, seed);
        for _ in 0..bursts {
            let start = rng.gen_range(0..horizon_cycles.max(1));
            let cycles = rng.gen_range(3..40u64);
            let kind = match rng.gen_range(0..7u32) {
                0 => FaultKind::FrameDrop,
                1 => FaultKind::Bayer(BayerFaultKind::HotPixels {
                    density: rng.gen_range(0.005f32..0.08),
                }),
                2 => FaultKind::Bayer(BayerFaultKind::RowBanding {
                    period: rng.gen_range(2..8usize),
                    gain: rng.gen_range(0.1f32..0.6),
                }),
                3 => FaultKind::Bayer(BayerFaultKind::ExposureGlitch {
                    gain: if rng.gen_bool(0.5) {
                        rng.gen_range(1.8f32..4.0)
                    } else {
                        rng.gen_range(0.15f32..0.5)
                    },
                }),
                4 => FaultKind::Misclassify(Misprediction::Confuse),
                5 => FaultKind::PerceptionTimeout { extra_ms: rng.gen_range(10.0f64..40.0) },
                _ => {
                    if rng.gen_bool(0.5) {
                        FaultKind::Actuation(ActuationFault::Stuck)
                    } else {
                        FaultKind::Actuation(ActuationFault::Lagged {
                            response_scale: rng.gen_range(0.1f64..0.5),
                        })
                    }
                }
            };
            plan = plan.with_window(start, cycles, kind);
        }
        plan
    }

    /// The scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// `true` if the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Everything that goes wrong in `cycle`, aggregated across windows.
    pub fn faults_at(&self, cycle: u64) -> CycleFaults {
        let mut out = CycleFaults::default();
        for w in &self.windows {
            if !w.contains(cycle) {
                continue;
            }
            match w.kind {
                FaultKind::FrameDrop => out.drop_frame = true,
                FaultKind::Bayer(kind) => out.bayer = Some(kind),
                FaultKind::Misclassify(mp) => out.mispredict = Some(mp),
                FaultKind::PerceptionTimeout { extra_ms } => out.extra_delay_ms += extra_ms,
                FaultKind::Actuation(fault) => out.actuation = Some(fault),
            }
        }
        out
    }

    /// Serializes the plan (with its schema tag) as pretty JSON.
    ///
    /// # Panics
    ///
    /// Serialization of a plan cannot fail; panics only on an internal
    /// serde error.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&TaggedPlan {
            schema: FAULT_PLAN_SCHEMA.to_string(),
            name: self.name.clone(),
            seed: self.seed,
            windows: self.windows.clone(),
        })
        .expect("fault plan serializes")
    }

    /// Parses a plan from [`FaultPlan::to_json`] output, rejecting
    /// unknown schema tags.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let tagged: TaggedPlan = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if tagged.schema != FAULT_PLAN_SCHEMA {
            return Err(format!("unsupported fault-plan schema: {}", tagged.schema));
        }
        Ok(FaultPlan { name: tagged.name, seed: tagged.seed, windows: tagged.windows })
    }
}

/// On-disk form of a fault plan: the plan fields plus the schema tag.
#[derive(Serialize, Deserialize)]
struct TaggedPlan {
    schema: String,
    name: String,
    seed: u64,
    windows: Vec<FaultWindow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_per_cycle() {
        let plan = FaultPlan::named("mix", 1)
            .drop_burst(10, 5)
            .hot_pixels(12, 10, 0.02)
            .deadline_overrun(12, 2, 15.0)
            .deadline_overrun(13, 2, 5.0)
            .actuation_stuck(40, 3);
        assert!(!plan.faults_at(9).any());
        let c10 = plan.faults_at(10);
        assert!(c10.drop_frame && c10.bayer.is_none());
        let c12 = plan.faults_at(12);
        assert!(c12.drop_frame);
        assert_eq!(c12.bayer, Some(BayerFaultKind::HotPixels { density: 0.02 }));
        assert_eq!(c12.extra_delay_ms, 15.0);
        let c13 = plan.faults_at(13);
        assert_eq!(c13.extra_delay_ms, 20.0, "overlapping timeouts accumulate");
        assert_eq!(plan.faults_at(40).actuation, Some(ActuationFault::Stuck));
        // Trace labels track the active faults in field order.
        assert!(plan.faults_at(9).trace_labels().is_empty());
        assert_eq!(
            c12.trace_labels(),
            vec!["fault:frame_drop", "fault:bayer", "fault:deadline_overrun"]
        );
        assert_eq!(plan.faults_at(40).trace_labels(), vec!["fault:actuation"]);
        assert!(plan.faults_at(42).any());
        assert!(!plan.faults_at(43).any());
    }

    #[test]
    fn empty_plan_is_fault_free() {
        let plan = FaultPlan::named("nominal", 7);
        assert!(plan.is_empty());
        for cycle in [0u64, 100, u64::MAX] {
            assert!(!plan.faults_at(cycle).any());
        }
    }

    #[test]
    fn random_plans_replay_identically() {
        let a = FaultPlan::random("r", 7, 1000, 12);
        let b = FaultPlan::random("r", 7, 1000, 12);
        assert_eq!(a, b);
        assert_eq!(a.windows().len(), 12);
        let c = FaultPlan::random("r", 8, 1000, 12);
        assert_ne!(a, c, "different seeds give different campaigns");
    }

    #[test]
    fn plan_round_trips_through_json() {
        // Forcing the benign boot situation (straight, white continuous,
        // day) on a turn reproduces the paper's Case 1 failure mechanism.
        let benign = lkas_scene::situation::TABLE3_SITUATIONS[0];
        let plan = FaultPlan::random("roundtrip", 3, 500, 6).with_window(
            490,
            10,
            FaultKind::Misclassify(Misprediction::Force(benign)),
        );
        let json = plan.to_json();
        assert!(json.contains(FAULT_PLAN_SCHEMA));
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        let bad = json.replace(FAULT_PLAN_SCHEMA, "lkas-fault-plan-v999");
        assert!(FaultPlan::from_json(&bad).is_err());
    }

    #[test]
    fn actuation_mapping_reaches_vehicle_types() {
        assert_eq!(ActuationFault::Stuck.to_actuator(), ActuatorFault::Stuck);
        assert_eq!(
            ActuationFault::Lagged { response_scale: 0.3 }.to_actuator(),
            ActuatorFault::Sluggish { response_scale: 0.3 }
        );
    }

    #[test]
    fn window_bounds_are_inclusive_exclusive() {
        let w = FaultWindow { start_cycle: 5, cycles: 3, kind: FaultKind::FrameDrop };
        assert!(!w.contains(4));
        assert!(w.contains(5) && w.contains(7));
        assert!(!w.contains(8));
    }
}
