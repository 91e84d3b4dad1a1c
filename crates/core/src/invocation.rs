//! Classifier invocation scheduling (Sec. IV-E).
//!
//! Invoking all three classifiers every frame costs 16.5 ms of the
//! sampling period. Because situation features change slowly relative
//! to the frame rate, the paper proposes invoking only *one* classifier
//! per frame: the road classifier (to which robustness is most
//! sensitive) every frame within a 300 ms window; at the window
//! boundary one frame runs the lane classifier instead, the next frame
//! runs only the scene classifier, and the cycle repeats.
//!
//! [`InvocationScheme`] expresses both the every-frame schemes of
//! Table V and this round-robin scheme; richer schemes (the paper's
//! future work) can be added as new variants or built from
//! [`InvocationScheme::Custom`] period tables.

use lkas_platform::profiles::ClassifierKind;
use lkas_platform::schedule::ClassifierSet;
use serde::{Deserialize, Serialize};

/// The evaluation window of the paper's variable scheme (footnote 8:
/// at 50 km/h the control decision looks ~400 ms ahead, so a 300 ms
/// refresh keeps the system stable).
pub const ROUND_ROBIN_WINDOW_MS: f64 = 300.0;

/// A classifier invocation scheme: decides which classifiers run in the
/// sampling period starting at a given time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvocationScheme {
    /// The same classifier set every frame (Cases 1–4).
    EveryFrame(ClassifierSet),
    /// The paper's Sec. IV-E scheme: `road` every frame for a window,
    /// then one frame of `lane`, one frame of `scene`, repeat.
    RoundRobin {
        /// Window length (ms).
        window_ms: f64,
    },
    /// A custom periodic table: entry `i` is the classifier set of
    /// frame `i mod len`. Enables experimenting with richer schemes
    /// (paper Sec. V future work).
    Custom(Vec<ClassifierSet>),
}

impl InvocationScheme {
    /// The paper's 300 ms round-robin scheme.
    pub fn round_robin_300ms() -> Self {
        InvocationScheme::RoundRobin { window_ms: ROUND_ROBIN_WINDOW_MS }
    }

    /// The classifier set for the frame sampled at `time_ms`, given the
    /// sampling period `h_ms` and the number of frames sampled so far.
    ///
    /// For the round-robin scheme the schedule is derived from the
    /// *frame index* so that changing `h` (situation switches) does not
    /// desynchronize the cycle: a window holds `⌈window_ms / h_ms⌉`
    /// road frames followed by one lane frame and one scene frame.
    pub fn classifiers_for_frame(&self, frame_index: u64, h_ms: f64) -> ClassifierSet {
        match self {
            InvocationScheme::EveryFrame(set) => *set,
            InvocationScheme::RoundRobin { window_ms } => {
                let road_frames = (window_ms / h_ms).ceil().max(1.0) as u64;
                let cycle = road_frames + 2;
                let pos = frame_index % cycle;
                if pos < road_frames {
                    ClassifierSet::single(ClassifierKind::Road)
                } else if pos == road_frames {
                    ClassifierSet::single(ClassifierKind::Lane)
                } else {
                    ClassifierSet::single(ClassifierKind::Scene)
                }
            }
            InvocationScheme::Custom(table) => {
                if table.is_empty() {
                    ClassifierSet::none()
                } else {
                    table[(frame_index as usize) % table.len()]
                }
            }
        }
    }

    /// The classifier set for a frame under fault and degradation
    /// conditions. A dropped frame invokes nothing (there is no image
    /// to classify); a degraded loop invokes only the road classifier —
    /// the safe tuning pins the ISP and speed knobs anyway, road layout
    /// is the one situation axis that still matters (it selects the
    /// coarse ROI), and the single-classifier schedule shortens the
    /// sampling period, so a fixed-cycle outage costs less wall-clock
    /// time blind. Otherwise the scheme's nominal schedule applies.
    pub fn classifiers_for_frame_faulted(
        &self,
        frame_index: u64,
        h_ms: f64,
        frame_dropped: bool,
        degraded: bool,
    ) -> ClassifierSet {
        if frame_dropped {
            ClassifierSet::none()
        } else if degraded {
            ClassifierSet::road_only()
        } else {
            self.classifiers_for_frame(frame_index, h_ms)
        }
    }

    /// A short human-readable label of the scheme, used as the detail
    /// of the run-start trace event.
    pub fn describe(&self) -> String {
        match self {
            InvocationScheme::EveryFrame(set) => {
                format!("every-frame x{}", set.count())
            }
            InvocationScheme::RoundRobin { window_ms } => {
                format!("round-robin {window_ms}ms")
            }
            InvocationScheme::Custom(table) => format!("custom period {}", table.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_is_constant() {
        let s = InvocationScheme::EveryFrame(ClassifierSet::road_lane());
        for i in 0..10 {
            assert_eq!(s.classifiers_for_frame(i, 40.0).count(), 2);
        }
    }

    #[test]
    fn round_robin_pattern_at_30ms() {
        // h = 30 ms ⇒ 10 road frames, then lane, then scene.
        let s = InvocationScheme::round_robin_300ms();
        let road = ClassifierSet::single(ClassifierKind::Road);
        let lane = ClassifierSet::single(ClassifierKind::Lane);
        let scene = ClassifierSet::single(ClassifierKind::Scene);
        for i in 0..10 {
            assert_eq!(s.classifiers_for_frame(i, 30.0), road, "frame {i}");
        }
        assert_eq!(s.classifiers_for_frame(10, 30.0), lane);
        assert_eq!(s.classifiers_for_frame(11, 30.0), scene);
        assert_eq!(s.classifiers_for_frame(12, 30.0), road);
    }

    #[test]
    fn round_robin_respects_window_at_other_rates() {
        let s = InvocationScheme::round_robin_300ms();
        // h = 45 ms ⇒ ⌈300/45⌉ = 7 road frames per cycle.
        let road = ClassifierSet::single(ClassifierKind::Road);
        let cycle: Vec<ClassifierSet> = (0..9).map(|i| s.classifiers_for_frame(i, 45.0)).collect();
        assert_eq!(cycle.iter().filter(|&&c| c == road).count(), 7);
    }

    #[test]
    fn custom_table_cycles() {
        let s = InvocationScheme::Custom(vec![ClassifierSet::all(), ClassifierSet::none()]);
        assert_eq!(s.classifiers_for_frame(0, 25.0).count(), 3);
        assert_eq!(s.classifiers_for_frame(1, 25.0).count(), 0);
        assert_eq!(s.classifiers_for_frame(2, 25.0).count(), 3);
    }

    #[test]
    fn describe_labels_each_variant() {
        assert_eq!(InvocationScheme::EveryFrame(ClassifierSet::all()).describe(), "every-frame x3");
        assert_eq!(InvocationScheme::round_robin_300ms().describe(), "round-robin 300ms");
        assert_eq!(InvocationScheme::Custom(vec![]).describe(), "custom period 0");
    }

    #[test]
    fn empty_custom_runs_nothing() {
        let s = InvocationScheme::Custom(vec![]);
        assert_eq!(s.classifiers_for_frame(5, 25.0).count(), 0);
    }

    #[test]
    fn faulted_schedule_overrides() {
        let s = InvocationScheme::round_robin_300ms();
        // A dropped frame runs nothing, whatever the schedule says.
        assert_eq!(s.classifiers_for_frame_faulted(0, 25.0, true, false).count(), 0);
        assert_eq!(s.classifiers_for_frame_faulted(0, 25.0, true, true).count(), 0);
        // Degraded mode runs the road classifier alone.
        assert_eq!(
            s.classifiers_for_frame_faulted(0, 25.0, false, true),
            ClassifierSet::road_only()
        );
        // Nominal falls through to the scheme.
        assert_eq!(
            s.classifiers_for_frame_faulted(0, 25.0, false, false),
            s.classifiers_for_frame(0, 25.0)
        );
    }
}
